package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
)

func testMaster() []byte { return bytes.Repeat([]byte{0x5a}, prf.MinKeyBytes) }

// writeKeyring writes a keyring file into a temp dir and returns its path.
func writeKeyring(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const twoTenantKeyring = `{
  "tenants": [
    {"name": "acme", "key": "acme-secret-key-0001", "rate_rps": 100, "max_records": 50},
    {"name": "globex", "key": "globex-secret-key-01", "admin": true}
  ]
}`

// TestKeyringLoadAndLookup: keys resolve to their tenants, unknown keys
// fail, and tenant domains are disjoint and deterministic.
func TestKeyringLoadAndLookup(t *testing.T) {
	k, err := LoadKeyring(writeKeyring(t, twoTenantKeyring), testMaster())
	if err != nil {
		t.Fatal(err)
	}
	acme, ok := k.Lookup("acme-secret-key-0001")
	if !ok || acme.Name != "acme" {
		t.Fatalf("acme lookup: ok=%v tenant=%+v", ok, acme)
	}
	globex, ok := k.Lookup("globex-secret-key-01")
	if !ok || !globex.Admin {
		t.Fatalf("globex lookup: ok=%v admin=%v", ok, globex.Admin)
	}
	if _, ok := k.Lookup("not-a-real-key-here"); ok {
		t.Fatal("unknown key resolved")
	}
	if acme.Domain.Bits != DefaultDomainBits || globex.Domain.Bits != DefaultDomainBits {
		t.Fatalf("domain bits %d/%d, want %d", acme.Domain.Bits, globex.Domain.Bits, DefaultDomainBits)
	}
	if acme.Domain.Tag == globex.Domain.Tag {
		t.Fatal("two tenants share one domain tag")
	}
	// Deterministic: the same master and name derive the same domain.
	again := deriveDomain(testMaster(), "acme", DefaultDomainBits)
	if again != acme.Domain {
		t.Fatalf("domain derivation not deterministic: %+v vs %+v", again, acme.Domain)
	}
	// A different master key moves every tenant's domain.
	other := deriveDomain(bytes.Repeat([]byte{0x11}, prf.MinKeyBytes), "acme", DefaultDomainBits)
	if other == acme.Domain {
		t.Fatal("domain tag independent of the master key")
	}
}

// TestKeyringValidation: malformed keyrings are refused with readable
// errors and never replace a working generation.
func TestKeyringValidation(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty tenants", `{"tenants": []}`, "no tenants"},
		{"short key", `{"tenants": [{"name": "a", "key": "short"}]}`, "shorter than 16"},
		{"missing name", `{"tenants": [{"key": "a-long-enough-key-1"}]}`, "no name"},
		{"negative rate", `{"tenants": [{"name": "a", "key": "a-long-enough-key-1", "rate_rps": -1}]}`, "negative rate"},
		{"wide domain", `{"domain_bits": 40, "tenants": [{"name": "a", "key": "a-long-enough-key-1"}]}`, "at most 32"},
		{"duplicate name", `{"tenants": [{"name": "a", "key": "a-long-enough-key-1"}, {"name": "a", "key": "b-long-enough-key-2"}]}`, "duplicate tenant"},
		{"shared key", `{"tenants": [{"name": "a", "key": "a-long-enough-key-1"}, {"name": "b", "key": "a-long-enough-key-1"}]}`, "share one API key"},
		{"bad json", `{"tenants": [`, "parsing keyring"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadKeyring(writeKeyring(t, tc.body), testMaster())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestKeyringReloadRotatesKeysKeepsState: rotating a tenant's API key
// preserves its quota spend and domain; a broken reload leaves the old
// generation serving.
func TestKeyringReloadRotatesKeysKeepsState(t *testing.T) {
	path := writeKeyring(t, twoTenantKeyring)
	k, err := LoadKeyring(path, testMaster())
	if err != nil {
		t.Fatal(err)
	}
	acme, _ := k.Lookup("acme-secret-key-0001")
	oldDomain := acme.Domain
	if ok, _ := acme.quota.tryAdd(30, acme.MaxRecords); !ok {
		t.Fatal("quota seed failed")
	}

	rotated := strings.Replace(twoTenantKeyring, "acme-secret-key-0001", "acme-rotated-key-002", 1)
	if err := os.WriteFile(path, []byte(rotated), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := k.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Lookup("acme-secret-key-0001"); ok {
		t.Fatal("rotated-out key still resolves")
	}
	acme2, ok := k.Lookup("acme-rotated-key-002")
	if !ok {
		t.Fatal("rotated-in key does not resolve")
	}
	if acme2.RecordsUsed() != 30 {
		t.Fatalf("quota state lost across rotation: used %d, want 30", acme2.RecordsUsed())
	}
	if acme2.Domain != oldDomain {
		t.Fatalf("rotation moved the tenant's domain %+v -> %+v", oldDomain, acme2.Domain)
	}

	// A broken file must not take the working keyring down.
	if err := os.WriteFile(path, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := k.Reload(); err == nil {
		t.Fatal("broken reload reported success")
	}
	if _, ok := k.Lookup("acme-rotated-key-002"); !ok {
		t.Fatal("failed reload dropped the serving generation")
	}
}

// TestEffectiveIDDomainMapping: tenant-relative ids map into the tenant's
// prefix slice, out-of-range ids are refused, and two tenants' effective
// ids can never collide.
func TestEffectiveIDDomainMapping(t *testing.T) {
	k, err := LoadKeyring(writeKeyring(t, twoTenantKeyring), testMaster())
	if err != nil {
		t.Fatal(err)
	}
	acme, _ := k.Lookup("acme-secret-key-0001")
	globex, _ := k.Lookup("globex-secret-key-01")
	for _, id := range []uint64{0, 1, 12345, acme.MaxUserID()} {
		ea, err := acme.EffectiveID(id)
		if err != nil {
			t.Fatal(err)
		}
		eg, err := globex.EffectiveID(id)
		if err != nil {
			t.Fatal(err)
		}
		if ea == eg {
			t.Fatalf("id %d collides across tenants: %d", id, ea)
		}
		if !acme.Domain.Keep(bitvec.UserID(ea)) {
			t.Fatalf("acme id %d -> %d escapes acme's domain", id, ea)
		}
		if globex.Domain.Keep(bitvec.UserID(ea)) {
			t.Fatalf("acme id %d -> %d lands inside globex's domain", id, ea)
		}
	}
	if _, err := acme.EffectiveID(acme.MaxUserID() + 1); err == nil {
		t.Fatal("out-of-range id admitted")
	}
}

// TestSingleNodeTenantMaskCached: in single-node mode a tenant's domain
// filter carries the domain's key (cluster.Domain.Filter), so the engine
// caches the tenant's keep mask as a fleet node caches an ownership mask —
// the second identical query advances engine_keep_mask_hits_total and
// builds nothing, a filter with that key is answered without one call of
// its predicate — and no tenant is ever served another's mask.
func TestSingleNodeTenantMaskCached(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	reg := obs.NewRegistry()
	tg.eng.SetMetrics(reg)
	masks := func() (hits, misses float64) {
		t.Helper()
		var sb strings.Builder
		if err := reg.RenderText(&sb); err != nil {
			t.Fatal(err)
		}
		families, err := obs.ParseText(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range families {
			switch f.Name {
			case "engine_keep_mask_hits_total":
				hits = f.Samples[0].Value
			case "engine_keep_mask_misses_total":
				misses = f.Samples[0].Value
			}
		}
		return hits, misses
	}
	subset := []int{0, 2, 4}
	users := func(key string) int {
		t.Helper()
		var got estimateResponse
		status, apiErr, raw := tg.call(t, "POST", "/v1/query/fraction", key, map[string]any{"subset": subset, "value": "111"})
		if status != http.StatusOK {
			t.Fatalf("query: HTTP %d (%s)", status, apiErr.Message)
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		return got.Users
	}
	// The same tenant-relative ids under both tenants, in one table.
	tg.publishProfiles(t, acmeKey, 30, 10, subset)
	tg.publishProfiles(t, globexKey, 12, 4, subset)

	if n := users(acmeKey); n != 30 {
		t.Fatalf("acme's first query counted %d users, want 30", n)
	}
	if hits, misses := masks(); hits != 0 || misses != 1 {
		t.Fatalf("after acme's first query: %v mask hits, %v misses, want 0 and 1", hits, misses)
	}
	if n := users(acmeKey); n != 30 {
		t.Fatalf("acme's second query counted %d users, want 30", n)
	}
	if hits, misses := masks(); hits != 1 || misses != 1 {
		t.Fatalf("after acme's second query: %v mask hits, %v misses, want 1 and 1", hits, misses)
	}
	// Globex's mask is another key: built, not borrowed; then acme's again.
	if n := users(globexKey); n != 12 {
		t.Fatalf("globex counted %d users, want its own 12", n)
	}
	if hits, misses := masks(); hits != 1 || misses != 2 {
		t.Fatalf("after globex's first query: %v mask hits, %v misses, want 1 and 2", hits, misses)
	}
	if a, g := users(acmeKey), users(globexKey); a != 30 || g != 12 {
		t.Fatalf("with both masks cached acme counts %d users and globex %d, want 30 and 12", a, g)
	}

	// The key is the domain's: a filter of acme's key is served acme's mask
	// and its predicate is never asked.
	acme, _ := tg.ring.Lookup(acmeKey)
	globex, _ := tg.ring.Lookup(globexKey)
	filter := acme.Domain.Filter()
	if other := globex.Domain.Filter(); filter.Key == "" || filter.Key == other.Key {
		t.Fatalf("domain filter keys %q and %q must be non-empty and distinct", filter.Key, other.Key)
	}
	if (cluster.Domain{}).Filter() != nil {
		t.Fatal("the zero domain restricts nothing and must have no filter")
	}
	calls := 0
	counting := &query.UserFilter{Key: filter.Key, Keep: func(id bitvec.UserID) bool { calls++; return filter.Keep(id) }}
	est, err := tg.eng.Estimator().Fraction(tg.eng.Source(counting), bitvec.MustSubset(subset...), bitvec.MustFromString("111"))
	if err != nil || est.Users != 30 || calls != 0 {
		t.Fatalf("a filter of acme's key counted %d users (err %v) with %d predicate calls, want 30 with none", est.Users, err, calls)
	}
}
