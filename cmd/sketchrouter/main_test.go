package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/fleettest"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
)

// TestRouterSIGKILLNodeFailover is the process-level acceptance test: a
// real 3-sketchd cluster behind a real sketchrouter, one node SIGKILLed
// after a batch of acknowledged publishes.  Every acknowledged sketch must
// stay queryable with estimates bit-identical to a single engine holding
// the full record set — through the Go client and through the sketchctl
// binary, whose printed line must be the reference's to the digit — and
// publishes owned by the dead node must fail loudly (never a false
// acknowledgement) while publishes owned by the survivors keep succeeding.
func TestRouterSIGKILLNodeFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons; skipped in -short")
	}
	sketchdBin := fleettest.BuildBinary(t, "sketchprivacy/cmd/sketchd")
	routerBin := fleettest.BuildBinary(t, "sketchprivacy/cmd/sketchrouter")
	ctlBin := fleettest.BuildBinary(t, "sketchprivacy/cmd/sketchctl")

	const (
		users = 5000
		p     = 0.3
		tau   = 1e-6
		n     = 400
		rf    = 2
	)
	params, err := sketch.ParamsFor(p, users, tau)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.MustSubset(0, 1, 2)
	value := bitvec.MustFromString("101")
	record := func(id uint64) sketch.Published {
		return sketch.Published{
			ID:     bitvec.UserID(id),
			Subset: subset,
			S:      sketch.Sketch{Key: id % (1 << params.Length), Length: params.Length},
		}
	}

	nodeArgs := []string{"-addr", "127.0.0.1:0", "-users", fmt.Sprint(users), "-p", fmt.Sprint(p), "-tau", fmt.Sprint(tau)}
	var (
		nodeCmds  []*exec.Cmd
		nodeAddrs []string
	)
	for i := 0; i < 3; i++ {
		cmd, addrs := fleettest.StartProc(t, sketchdBin, nodeArgs, "sketchd listening on ")
		nodeCmds = append(nodeCmds, cmd)
		nodeAddrs = append(nodeAddrs, addrs[0])
	}
	defer func() {
		for _, cmd := range nodeCmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Hinted handoff off: this test pins the strict mode, where a publish
	// owned by a dead node must fail loudly rather than queue a hint.
	routerCmd, routerAddrs := fleettest.StartProc(t, routerBin, []string{
		"-addr", "127.0.0.1:0",
		"-nodes", strings.Join(nodeAddrs, ","),
		"-rf", fmt.Sprint(rf),
		"-ping-interval", "200ms",
		"-hinted-handoff=false",
	}, "sketchrouter listening on ")
	routerAddr := routerAddrs[0]
	defer func() {
		routerCmd.Process.Signal(os.Interrupt)
		routerCmd.Wait()
	}()

	cli, err := server.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Publish the acknowledged set through the router.
	for id := uint64(1); id <= n; id++ {
		if err := cli.Publish(record(id)); err != nil {
			t.Fatalf("publish %d: %v", id, err)
		}
	}

	// Reference: a single engine over exactly the acknowledged records.
	h := prf.NewBiased(routerDevKey(), prf.MustProb(p))
	ref, err := engine.New(h, params)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= n; id++ {
		if err := ref.Ingest(record(id)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Conjunction(subset, value)
	if err != nil {
		t.Fatal(err)
	}
	// What sketchctl prints for the reference estimate.
	wantLine := fmt.Sprintf("estimated fraction %.4f (raw %.4f) over %d users; estimated count %.0f\n",
		want.Fraction, want.Raw, want.Users, want.Count())

	check := func(context string) {
		t.Helper()
		got, err := ref.Estimator().Fraction(cli, subset, value)
		if err != nil {
			t.Fatalf("%s: query: %v", context, err)
		}
		if got.Users != n {
			t.Fatalf("%s: query covers %d users, want all %d acknowledged", context, got.Users, n)
		}
		if got.Fraction != want.Fraction || got.Raw != want.Raw {
			t.Fatalf("%s: estimate (%v, %v) differs from reference (%v, %v)",
				context, got.Fraction, got.Raw, want.Fraction, want.Raw)
		}
		ctl := exec.Command(ctlBin, "-addr", routerAddr, "-users", fmt.Sprint(users), "-p", fmt.Sprint(p), "-tau", fmt.Sprint(tau),
			"query", "-subset", "0,1,2", "-value", "101")
		ctl.Stderr = os.Stderr
		line, err := ctl.Output()
		if err != nil {
			t.Fatalf("%s: sketchctl query: %v", context, err)
		}
		if string(line) != wantLine {
			t.Fatalf("%s: sketchctl printed %q, the reference reads %q", context, line, wantLine)
		}
	}
	check("all nodes up")

	// SIGKILL one node.  The router must fail queries over to the
	// surviving replicas on its own.
	dead := nodeAddrs[0]
	if err := nodeCmds[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	nodeCmds[0].Wait()
	check("one node SIGKILLed")

	// The router's status (over the ping opcode) reports the death once
	// the health loop catches up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := cli.Ping()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(status, "dead") && strings.Contains(status, "live=2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router status never reported the dead node:\n%s", status)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Publishes owned by the dead node fail loudly; survivor-owned ones
	// succeed.  The test rebuilds the router's ring from the same
	// membership to find both kinds of id.
	ring, err := cluster.NewRing(nodeAddrs, 64)
	if err != nil {
		t.Fatal(err)
	}
	foundDead, foundLive := false, false
	for id := uint64(1_000_000); id < 1_001_000 && !(foundDead && foundLive); id++ {
		owners := ring.Owners(bitvec.UserID(id), rf)
		deadOwned := owners[0] == dead || owners[1] == dead
		if deadOwned && !foundDead {
			foundDead = true
			if err := cli.Publish(record(id)); err == nil {
				t.Fatalf("publish for user %d owned by SIGKILLed node was acknowledged", id)
			}
		}
		if !deadOwned && !foundLive {
			foundLive = true
			if err := cli.Publish(record(id)); err != nil {
				t.Fatalf("publish for user %d with surviving owners %v failed: %v", id, owners, err)
			}
		}
	}
	if !foundDead || !foundLive {
		t.Fatal("id scan found no suitable owners")
	}
}

// routerDevKey is the built-in development key, which the sketchd nodes
// in these tests run with (they are started without -keyhex).
func routerDevKey() []byte {
	key, _ := prf.GeneratorKey("")
	return key
}

// TestRouterLiveJoinRebalanceDrainCycle is the process-level membership
// test the cluster-integration CI step runs: real sketchd nodes behind a
// real sketchrouter, grown from two nodes to three with `join`, then
// shrunk with `drain`, with every estimate checked bit-identical to a
// single merged engine before and after each step.
func TestRouterLiveJoinRebalanceDrainCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real daemons; skipped in -short")
	}
	sketchdBin := fleettest.BuildBinary(t, "sketchprivacy/cmd/sketchd")
	routerBin := fleettest.BuildBinary(t, "sketchprivacy/cmd/sketchrouter")

	const (
		users = 5000
		p     = 0.3
		tau   = 1e-6
		n     = 600
		rf    = 2
	)
	params, err := sketch.ParamsFor(p, users, tau)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.MustSubset(0, 1, 2)
	value := bitvec.MustFromString("101")
	record := func(id uint64) sketch.Published {
		return sketch.Published{
			ID:     bitvec.UserID(id),
			Subset: subset,
			S:      sketch.Sketch{Key: id % (1 << params.Length), Length: params.Length},
		}
	}

	nodeArgs := []string{"-addr", "127.0.0.1:0", "-users", fmt.Sprint(users), "-p", fmt.Sprint(p), "-tau", fmt.Sprint(tau)}
	var (
		nodeCmds  []*exec.Cmd
		nodeAddrs []string
	)
	startNode := func() (cmd *exec.Cmd, addr string) {
		cmd, addrs := fleettest.StartProc(t, sketchdBin, nodeArgs, "sketchd listening on ")
		nodeCmds = append(nodeCmds, cmd)
		nodeAddrs = append(nodeAddrs, addrs[0])
		return cmd, addrs[0]
	}
	startNode()
	startNode()
	defer func() {
		for _, cmd := range nodeCmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	routerCmd, routerAddrs := fleettest.StartProc(t, routerBin, []string{
		"-addr", "127.0.0.1:0",
		"-nodes", strings.Join(nodeAddrs[:2], ","),
		"-rf", fmt.Sprint(rf),
		"-ping-interval", "100ms",
	}, "sketchrouter listening on ")
	routerAddr := routerAddrs[0]
	defer func() {
		routerCmd.Process.Signal(os.Interrupt)
		routerCmd.Wait()
	}()

	cli, err := server.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for id := uint64(1); id <= n; id++ {
		if err := cli.Publish(record(id)); err != nil {
			t.Fatalf("publish %d: %v", id, err)
		}
	}
	h := prf.NewBiased(routerDevKey(), prf.MustProb(p))
	ref, err := engine.New(h, params)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= n; id++ {
		if err := ref.Ingest(record(id)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Conjunction(subset, value)
	if err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		t.Helper()
		got, err := ref.Estimator().Fraction(cli, subset, value)
		if err != nil {
			t.Fatalf("%s: query: %v", context, err)
		}
		if got.Users != n || got.Fraction != want.Fraction || got.Raw != want.Raw {
			t.Fatalf("%s: estimate (%v, %v over %d users) differs from reference (%v, %v over %d)",
				context, got.Fraction, got.Raw, got.Users, want.Fraction, want.Raw, n)
		}
	}
	check("2-node baseline")

	// Grow: start a third sketchd and join it through the admin opcode.
	_, addr3 := startNode()
	if err := cli.Join(addr3); err != nil {
		t.Fatalf("join %s: %v", addr3, err)
	}
	check("after join")
	status, err := cli.RebalanceStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "join") || !strings.Contains(status, "ok in") || !strings.Contains(status, "epoch=2") {
		t.Fatalf("rebalance status after join:\n%s", status)
	}
	// The joined node serves real ownership: the router status lists it
	// with a non-trivial sketch count once pings catch up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ping, err := cli.Ping()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(ping, addr3) && strings.Contains(ping, "live=3") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never admitted the joined node:\n%s", ping)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Shrink: drain the first node and re-check.
	if err := cli.Drain(nodeAddrs[0]); err != nil {
		t.Fatalf("drain %s: %v", nodeAddrs[0], err)
	}
	check("after drain")
	status, err = cli.RebalanceStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "drain") || !strings.Contains(status, "epoch=3") {
		t.Fatalf("rebalance status after drain:\n%s", status)
	}
	// The drained node is out of the ring: killing it must not cost a
	// single record.
	if err := nodeCmds[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	nodeCmds[0].Wait()
	check("after drained node killed")
}
