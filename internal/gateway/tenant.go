package gateway

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/prf"
)

// DefaultDomainBits is the tenant-prefix width when the keyring file does
// not choose one: 24 bits of tenant domain leave every tenant 2^40 user
// ids, and make an accidental HKDF tag collision (checked at load anyway)
// vanishingly unlikely for realistic fleet sizes.
const DefaultDomainBits = 24

// TenantConfig is one tenant entry of the keyring file.
type TenantConfig struct {
	// Name identifies the tenant; the tenant's PRF domain tag is derived
	// from it, so renaming a tenant moves it to a fresh, empty domain.
	Name string `json:"name"`
	// Key is the tenant's API key (the bearer secret clients present).
	Key string `json:"key"`
	// RateRPS and RateBurst parameterize the tenant's request token
	// bucket (defaults 50 rps, burst 100).
	RateRPS   float64 `json:"rate_rps"`
	RateBurst float64 `json:"rate_burst"`
	// MaxRecords caps how many records the tenant may publish through
	// this gateway (0: unlimited).  At the cap, publishes answer a typed
	// 429 quota error.
	MaxRecords uint64 `json:"max_records"`
	// Admin grants the cluster-admin endpoints (join/drain/rebalance
	// status/key reload).
	Admin bool `json:"admin"`
}

// KeyringFile is the on-disk shape of the tenant keyring.
type KeyringFile struct {
	// DomainBits is the tenant-prefix width (default DefaultDomainBits).
	// Changing it re-domains every tenant, so treat it as immutable once
	// records exist.
	DomainBits uint8 `json:"domain_bits"`
	// Tenants lists the API keys.
	Tenants []TenantConfig `json:"tenants"`
}

// Tenant is one loaded tenant: its domain, its limiter and its quota.
// Limiter and quota state survive keyring reloads (matched by name), so
// rotating a tenant's API key does not reset its rate or quota budget.
type Tenant struct {
	// Name is the tenant's stable identity.
	Name string
	// Domain is the tenant's slice of the user-id space.
	Domain cluster.Domain
	// Admin grants the admin endpoints.
	Admin bool
	// MaxRecords caps published records (0: unlimited).
	MaxRecords uint64

	limiter *tokenBucket
	quota   *quota
}

// MaxUserID returns the largest tenant-relative user id the domain can
// hold (cluster.Domain.MaxID).
func (t *Tenant) MaxUserID() uint64 { return t.Domain.MaxID() }

// EffectiveID rewrites a tenant-relative user id into the tenant's domain
// (cluster.Domain.ID).
func (t *Tenant) EffectiveID(id uint64) (uint64, error) {
	eff, err := t.Domain.ID(id)
	return uint64(eff), err
}

// RecordsUsed returns how many records the tenant has published through
// this gateway process.
func (t *Tenant) RecordsUsed() uint64 { return t.quota.used.Load() }

// Keyring maps API keys to tenants.  Lookups hash the presented key and
// compare digests in constant time, so neither the map walk nor the
// comparison leaks key bytes through timing.  Reload re-reads the backing
// file and swaps the tenant set atomically; in-flight requests keep the
// tenant they resolved.
type Keyring struct {
	path   string
	master []byte

	mu      sync.RWMutex
	bits    uint8
	byHash  map[[sha256.Size]byte]*Tenant
	byName  map[string]*Tenant
	nowFunc func() float64 // monotonic seconds; injectable for limiter tests
}

// deriveDomain computes a tenant's domain tag: the first 8 bytes of the
// PRF key-derivation construction applied to the master generator key and
// the tenant's name, truncated to the prefix width.  The derivation is the
// paper's sub-key construction (prf.Func.DeriveKey), so tags are uniform,
// deterministic, and unforgeable without the master key.
func deriveDomain(master []byte, name string, bits uint8) cluster.Domain {
	raw := prf.NewFunc(master).DeriveKey("gateway/tenant-domain/"+name, 8)
	tag := binary.BigEndian.Uint64(raw) >> (64 - uint(bits))
	return cluster.Domain{Bits: bits, Tag: tag}
}

// LoadKeyring reads a keyring file and derives every tenant's domain from
// the master generator key.
func LoadKeyring(path string, master []byte) (*Keyring, error) {
	k := &Keyring{path: path, master: master}
	if err := k.Reload(); err != nil {
		return nil, err
	}
	return k, nil
}

// parseKeyringFile decodes and validates the on-disk keyring.
func parseKeyringFile(raw []byte) (*KeyringFile, error) {
	var file KeyringFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("gateway: parsing keyring: %w", err)
	}
	if file.DomainBits == 0 {
		file.DomainBits = DefaultDomainBits
	}
	if file.DomainBits > 32 {
		return nil, fmt.Errorf("gateway: domain_bits %d leaves tenants fewer than 2^32 user ids; use at most 32", file.DomainBits)
	}
	if len(file.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: keyring declares no tenants")
	}
	for i, t := range file.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("gateway: tenant %d has no name", i)
		}
		if len(t.Key) < 16 {
			return nil, fmt.Errorf("gateway: tenant %q key is shorter than 16 characters", t.Name)
		}
		if t.RateRPS < 0 || t.RateBurst < 0 {
			return nil, fmt.Errorf("gateway: tenant %q has a negative rate limit", t.Name)
		}
	}
	return &file, nil
}

// Reload re-reads the keyring file.  Tenants are matched to the previous
// generation by name so their limiter and quota state carries over; keys
// may rotate freely.  A parse or validation error leaves the current
// keyring serving unchanged — a bad reload must not take the fleet's auth
// down with it.
func (k *Keyring) Reload() error {
	raw, err := os.ReadFile(k.path)
	if err != nil {
		return fmt.Errorf("gateway: reading keyring: %w", err)
	}
	file, err := parseKeyringFile(raw)
	if err != nil {
		return err
	}

	k.mu.Lock()
	defer k.mu.Unlock()
	if k.bits != 0 && k.bits != file.DomainBits {
		return fmt.Errorf("gateway: keyring reload changes domain_bits %d -> %d; the prefix width is immutable while records exist", k.bits, file.DomainBits)
	}
	byHash := make(map[[sha256.Size]byte]*Tenant, len(file.Tenants))
	byName := make(map[string]*Tenant, len(file.Tenants))
	byTag := make(map[uint64]string, len(file.Tenants))
	for _, tc := range file.Tenants {
		if _, dup := byName[tc.Name]; dup {
			return fmt.Errorf("gateway: duplicate tenant name %q", tc.Name)
		}
		dom := deriveDomain(k.master, tc.Name, file.DomainBits)
		if other, collides := byTag[dom.Tag]; collides {
			return fmt.Errorf("gateway: tenants %q and %q derive the same %d-bit domain tag; raise domain_bits", other, tc.Name, file.DomainBits)
		}
		byTag[dom.Tag] = tc.Name
		t := &Tenant{
			Name:       tc.Name,
			Domain:     dom,
			Admin:      tc.Admin,
			MaxRecords: tc.MaxRecords,
		}
		rate, burst := tc.RateRPS, tc.RateBurst
		if rate == 0 {
			rate = 50
		}
		if burst == 0 {
			burst = 2 * rate
		}
		if prev := k.byName[tc.Name]; prev != nil {
			// Carry the live state over; re-parameterize the limiter in
			// place so a reload can loosen or tighten a tenant's budget.
			t.limiter = prev.limiter
			t.limiter.setRate(rate, burst)
			t.quota = prev.quota
		} else {
			t.limiter = newTokenBucket(rate, burst, k.nowFunc)
			t.quota = &quota{}
		}
		hash := sha256.Sum256([]byte(tc.Key))
		if _, dup := byHash[hash]; dup {
			return fmt.Errorf("gateway: two tenants share one API key")
		}
		byHash[hash] = t
		byName[tc.Name] = t
	}
	k.bits = file.DomainBits
	k.byHash = byHash
	k.byName = byName
	return nil
}

// Lookup resolves an API key to its tenant.  The presented key is hashed
// and digests are compared in constant time.
func (k *Keyring) Lookup(apiKey string) (*Tenant, bool) {
	hash := sha256.Sum256([]byte(apiKey))
	k.mu.RLock()
	defer k.mu.RUnlock()
	for stored, t := range k.byHash {
		if subtle.ConstantTimeCompare(stored[:], hash[:]) == 1 {
			return t, true
		}
	}
	return nil, false
}

// DomainBits returns the keyring's tenant-prefix width.
func (k *Keyring) DomainBits() uint8 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.bits
}

// Tenants returns the current tenant set (for stats and metrics).
func (k *Keyring) Tenants() []*Tenant {
	k.mu.RLock()
	defer k.mu.RUnlock()
	out := make([]*Tenant, 0, len(k.byName))
	for _, t := range k.byName {
		out = append(out, t)
	}
	return out
}
