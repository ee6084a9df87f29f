package main

import (
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/gateway"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

// The fleet's shape: the smallest deployment that has every layer — three
// nodes so a fan-out has a slowest member, RF 2 so replication and the
// ownership filter do work.
const (
	fleetNodes  = 3
	replication = 2
	vnodes      = 64
	// flushThreshold is the WAL size at which a shard rolls into a
	// segment.  The production default (4 MiB) would leave the whole
	// benchmark dataset in WALs; at 512 KiB the preload leaves a few
	// segments and a WAL tail per shard, and rolls and compactions really
	// occur during a timed phase.
	flushThreshold = 512 << 10
	apiKey         = "fleetbench-tenant-key-0001"
)

// mechanism returns the deployment's public function H and parameters:
// sketchd's defaults (p = 0.3, sized for 10⁶ users at τ = 10⁻⁶) under a
// fixed generator key.  The key is public and the same for every seed; a
// seed varies the data and the users' coin flips, never the function.
func mechanism() (*prf.Biased, sketch.Params, []byte, error) {
	key := make([]byte, prf.MinKeyBytes)
	for i := range key {
		key[i] = byte(0x42 + i)
	}
	params, err := sketch.ParamsFor(0.3, 1_000_000, 1e-6)
	if err != nil {
		return nil, sketch.Params{}, nil, err
	}
	prob, err := prf.NewProb(params.P)
	if err != nil {
		return nil, sketch.Params{}, nil, err
	}
	return prf.NewBiased(key, prob), params, key, nil
}

// loadTenant writes a one-tenant keyring under dir and loads it.  The
// tenant is unthrottled and unmetered: limits are not what is measured.
func loadTenant(dir string, master []byte) (*gateway.Keyring, *gateway.Tenant, error) {
	path := filepath.Join(dir, "keys.json")
	body := fmt.Sprintf(`{"tenants": [{"name": "bench", "key": %q, "rate_rps": 1e12, "rate_burst": 1e12}]}`, apiKey)
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		return nil, nil, err
	}
	ring, err := gateway.LoadKeyring(path, master)
	if err != nil {
		return nil, nil, err
	}
	tenant, ok := ring.Lookup(apiKey)
	if !ok {
		return nil, nil, fmt.Errorf("bench tenant missing from its own keyring")
	}
	return ring, tenant, nil
}

// benchNode is one sketchd-equivalent: fsynced store → engine → TCP server.
type benchNode struct {
	name string // logical ring member name
	dir  string
	st   *store.Durable
	eng  *engine.Engine
	srv  *server.Server
	reg  *obs.Registry // nil in an untraced run
}

// fleet is the production stack assembled in one process from public
// constructors only.
type fleet struct {
	hash   *prf.Biased
	params sketch.Params
	tr     *tracer // nil in an untraced run: no wrapper is installed at all
	// registries attaches an obs.Registry to every public metrics hook.
	// A traced run always does; the wrapper test also runs registries
	// without wrappers, to show the wrappers change no counter.
	registries bool

	nodes     [fleetNodes]*benchNode
	router    *cluster.Router
	routerReg *obs.Registry
	gw        *gateway.Gateway
	gwReg     *obs.Registry
	handler   http.Handler

	// addrs maps the ring's logical member names to the nodes' ephemeral
	// listeners (noise rule 1): the ring hashes member names, so naming
	// members by "127.0.0.1:<ephemeral>" would move records between nodes
	// from run to run.
	mu    sync.Mutex
	addrs map[string]string
}

// nodeNames are the ring's logical member names.
var nodeNames = func() (names [fleetNodes]string) {
	for i := range names {
		names[i] = fmt.Sprintf("bench-node-%d", i)
	}
	return names
}()

func nodeName(i int) string { return nodeNames[i] }

// storeOptions are `sketchd -fsync` defaults but for the flush threshold
// and the background timer, which the harness replaces by CompactNow at
// round boundaries so that no maintenance runs on a clock.
func storeOptions(dir string, reg *obs.Registry) store.Options {
	return store.Options{
		Dir:             dir,
		Shards:          store.DefaultShards,
		Fsync:           true,
		FlushThreshold:  flushThreshold,
		CompactInterval: -1,
		Metrics:         reg,
	}
}

// openNode opens (or reopens) a node's store and rehydrates a fresh
// engine from it, as sketchd does at start-up.  It returns how long the
// store's replay and the engine's table load took.
func (f *fleet) openNode(n *benchNode, idx int) (openDur, attachDur time.Duration, err error) {
	eng, err := engine.New(f.hash, f.params)
	if err != nil {
		return 0, 0, err
	}
	if f.registries {
		n.reg = obs.NewRegistry() // a reopened node starts its series over
		eng.SetMetrics(n.reg)
	}
	start := time.Now()
	st, err := store.Open(storeOptions(n.dir, n.reg))
	if err != nil {
		return 0, 0, err
	}
	openDur = time.Since(start)
	var attached store.Store = st
	if f.tr != nil {
		attached = tracedStore{Durable: st, t: f.tr, node: int8(idx)}
	}
	start = time.Now()
	if err := eng.AttachStore(attached); err != nil {
		st.Close()
		return 0, 0, err
	}
	attachDur = time.Since(start)
	n.st, n.eng = st, eng
	return openDur, attachDur, nil
}

// serveNode starts the node's TCP server on an ephemeral loopback port
// and points the node's logical name at it.
func (f *fleet) serveNode(n *benchNode) error {
	n.srv = server.New(n.eng)
	if n.reg != nil {
		n.srv.RegisterMetrics(n.reg)
	}
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.addrs[n.name] = addr
	f.mu.Unlock()
	return nil
}

// dial resolves a logical member name and connects; in a traced run the
// connection is the S3 seam.
func (f *fleet) dial(name string, timeout time.Duration) (net.Conn, error) {
	f.mu.Lock()
	addr, ok := f.addrs[name]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown ring member %q", name)
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil || f.tr == nil {
		return c, err
	}
	for i, known := range nodeNames {
		if name == known {
			return f.tr.wrapConn(c, int8(i)), nil
		}
	}
	return c, nil
}

// newFleet brings the stack up under dir: 3 × {store → engine → server},
// a router over them and the gateway in front.
func newFleet(dir string, hash *prf.Biased, params sketch.Params, keyring *gateway.Keyring, tr *tracer, registries bool) (*fleet, error) {
	f := &fleet{hash: hash, params: params, tr: tr, registries: registries || tr != nil, addrs: make(map[string]string)}
	for i := range f.nodes {
		n := &benchNode{name: nodeName(i), dir: filepath.Join(dir, nodeName(i))}
		f.nodes[i] = n
		if _, _, err := f.openNode(n, i); err != nil {
			f.close()
			return nil, err
		}
		if err := f.serveNode(n); err != nil {
			f.close()
			return nil, err
		}
	}
	var err error
	f.router, err = cluster.NewRouter(hash, cluster.Config{
		Nodes:       nodeNames[:],
		Replication: replication,
		VNodes:      vnodes,
		Dial:        f.dial,
		// No ping may land inside a timed phase: the harness has no
		// node failures to detect, and a sweep's frames would make the
		// exact wire counts depend on the clock.
		PingInterval: time.Hour,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	var backend gateway.Backend = gateway.RouterBackend{R: f.router}
	if tr != nil {
		backend = tracedBackend{RouterBackend: gateway.RouterBackend{R: f.router}, t: tr}
	}
	if f.registries {
		f.routerReg = obs.NewRegistry()
		f.router.RegisterMetrics(f.routerReg)
	}
	f.gwReg = obs.NewRegistry()
	f.gw, err = gateway.New(gateway.Config{
		Backend: backend,
		Admin:   gateway.RouterBackend{R: f.router},
		Keyring: keyring,
		Params:  params,
		Hash:    hash,
		Seed:    1,
		Obs:     f.gwReg,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.handler = f.gw.Handler()
	return f, nil
}

// stopNode closes a node's server and store (a clean sketchd shutdown).
func (n *benchNode) stop() error {
	var first error
	if n.srv != nil {
		first = n.srv.Close()
		n.srv = nil
	}
	if n.st != nil {
		if err := n.st.Close(); first == nil {
			first = err
		}
		n.st = nil
	}
	return first
}

// close tears the fleet down; it is safe on a partly built fleet.
func (f *fleet) close() error {
	var first error
	if f.router != nil {
		first = f.router.Close()
	}
	for _, n := range f.nodes {
		if n == nil {
			continue
		}
		if err := n.stop(); first == nil {
			first = err
		}
	}
	return first
}

// compactAll is the round-boundary maintenance every node runs in place
// of the background compaction timer.
func (f *fleet) compactAll() error {
	for _, n := range f.nodes {
		if err := n.st.CompactNow(store.DefaultCompactThreshold); err != nil {
			return err
		}
	}
	return nil
}

// storedRecords counts the records the nodes hold (replicas included).
func (f *fleet) storedRecords() int {
	total := 0
	for _, n := range f.nodes {
		total += n.eng.Sketches()
	}
	return total
}

// newRing builds the ring the router builds: the same logical member
// names and virtual-node count, so ownership is known before any node is
// up and is the same on every run.
func newRing() (*cluster.Ring, error) {
	return cluster.NewRing(nodeNames[:], vnodes)
}

// ringOwners returns the node indexes the ring assigns a user to.
func ringOwners(ring *cluster.Ring, id bitvec.UserID, out []int) []int {
	out = out[:0]
	for _, name := range ring.Owners(id, replication) {
		for i, known := range nodeNames {
			if name == known {
				out = append(out, i)
			}
		}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
