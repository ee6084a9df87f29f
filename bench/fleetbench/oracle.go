package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/gateway"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

// checkAgainstOracle is correctness gate (a): every logged answer is
// re-asked of one memory-only engine holding each acknowledged record
// exactly once — no ring, no replicas, no ownership filter, no store —
// behind the same HTTP codec, and the two response bodies must be
// byte-identical, which for the JSON floats means bit-identical fraction,
// raw and users.  The oracle is built after the run's heap reading so
// its tables are not billed to the fleet.
func (e *environment) checkAgainstOracle() error {
	hash, params, key, err := mechanism()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.cfg.dir, "oracle-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keyring, _, err := loadTenant(dir, key)
	if err != nil {
		return err
	}
	oracle, err := engine.New(hash, params)
	if err != nil {
		return err
	}
	gw, err := gateway.New(gateway.Config{
		Backend: gateway.EngineBackend{E: oracle},
		Keyring: keyring,
		Params:  params,
		Hash:    hash,
		Seed:    1,
	})
	if err != nil {
		return err
	}
	handler := gw.Handler()
	if err := oracle.IngestBatch(e.corpus.base); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	held := 0
	for _, v := range e.verify {
		if v.acked > held {
			if err := oracle.IngestBatch(e.corpus.fresh[held:v.acked]); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			held = v.acked
		}
		req := httptest.NewRequest(http.MethodPost, v.call.path, bytes.NewReader(v.call.body))
		req.Header.Set("Authorization", "Bearer "+apiKey)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			e.problem("oracle refused %s (%s): HTTP %d: %s", v.what, v.call.path, rec.Code, rec.Body.Bytes())
			continue
		}
		if !bytes.Equal(rec.Body.Bytes(), v.got) {
			e.problem("%s: fleet answered %s but a single engine holding the same %d records answers %s",
				v.what, bytes.TrimSpace(v.got), len(e.corpus.base)+held, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
	if e.cfg.w.name == "query-scan" {
		e.checkUtility(oracle)
	}
	return nil
}

// checkUtility is correctness gate (b), the paper's accuracy statement
// through the whole stack: the planted value and the next two rounds'
// first values land within Lemma 4.1's radius of the population's true
// fraction.  (At δ = 0.01 the Chernoff radius is about nine standard
// deviations of the estimator, so the gate does not flap.)
func (e *environment) checkUtility(oracle *engine.Engine) {
	for i := 0; i < 3 && i < len(e.verify); i++ {
		v := e.verify[i]
		var req fractionBody
		var resp struct {
			Fraction float64 `json:"fraction"`
			Users    int     `json:"users"`
		}
		if json.Unmarshal(v.call.body, &req) != nil || json.Unmarshal(v.got, &resp) != nil {
			e.problem("utility gate: cannot decode %s", v.what)
			continue
		}
		value, err := bitvec.FromString(req.Value)
		if err != nil {
			e.problem("utility gate: %v", err)
			continue
		}
		truth := e.corpus.pop.TrueFraction(fullSet, value)
		radius := query.Estimate{Users: resp.Users, P: oracle.Params().P}.ConfidenceRadius(0.01)
		if math.Abs(resp.Fraction-truth) > radius {
			e.problem("utility gate: value %s estimated %.5f, true fraction %.5f, outside the δ=0.01 radius %.5f",
				req.Value, resp.Fraction, truth, radius)
		}
	}
}

// crashCopy copies the three data directories as a crash at this instant
// would leave them — nothing closed, nothing flushed by the harness — and
// remembers how many fresh records had been acknowledged.
type crashCopy struct {
	dir   string
	acked int
	owned [fleetNodes]int
}

func (e *environment) takeCrashCopy() (*crashCopy, error) {
	dir, err := os.MkdirTemp(e.cfg.dir, "crash-")
	if err != nil {
		return nil, err
	}
	cc := &crashCopy{dir: dir, acked: e.acked, owned: e.owned}
	for _, n := range e.fleet.nodes {
		if err := copyTree(n.dir, filepath.Join(dir, n.name)); err != nil {
			return nil, err
		}
	}
	return cc, nil
}

// check is the second half of correctness gate (c): each copied
// directory opens as a fresh store holding exactly the records
// acknowledged before the copy began that the ring assigns to its node.
func (cc *crashCopy) check(e *environment) error {
	defer os.RemoveAll(cc.dir)
	for i := 0; i < fleetNodes; i++ {
		st, err := store.Open(store.Options{Dir: filepath.Join(cc.dir, nodeName(i)), CompactInterval: -1})
		if err != nil {
			return fmt.Errorf("opening the crash copy of %s: %w", nodeName(i), err)
		}
		held := 0
		err = st.Iterate(func(sketch.Published) error { held++; return nil })
		if err == nil && held != cc.owned[i] {
			e.problem("crash copy of %s holds %d records, %d were acknowledged", nodeName(i), held, cc.owned[i])
		}
		var owners []int
		for j := 0; j < cc.acked && err == nil; j++ {
			p := e.corpus.fresh[j]
			owners = ringOwners(e.ring, p.ID, owners)
			for _, o := range owners {
				if o != i {
					continue
				}
				got, ok, lerr := st.Lookup(p.ID, p.Subset.Key())
				if lerr != nil {
					err = lerr
				} else if !ok || got.S != p.S {
					e.problem("crash copy of %s lost acknowledged record %v/%v", nodeName(i), p.ID, p.Subset)
				}
			}
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("reading the crash copy of %s: %w", nodeName(i), err)
		}
	}
	return nil
}
