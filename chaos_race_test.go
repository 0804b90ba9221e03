package microp4_test

import (
	"errors"
	"sync"
	"testing"

	"microp4"
	"microp4/internal/ctrlplane"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

// TestProcessUnderControlPlaneChurn races Process on several goroutines
// against a churn injector rewriting tables and multicast groups on the
// SAME switch — the documented concurrency contract under -race. Typed
// errors are legitimate (churn installs garbage entries on purpose);
// panics or untyped errors are not.
func TestProcessUnderControlPlaneChurn(t *testing.T) {
	dp := compileLib(t, "P4")
	sw := dp.NewSwitch()
	sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
		[]microp4.Key{microp4.LPM(0x0A000000, 8)}, "l3_i.ipv4_i.process", 100)
	sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(100)},
		"forward", 0xAA0000000001, 0xBB0000000001, 1)

	churn := netsim.NewChurn(0xBEEF, sw, netsim.ChurnConfig{
		Tables: []string{"forward_tbl", "l3_i.ipv4_i.ipv4_lpm_tbl", "l3_i.ipv6_i.ipv6_lpm_tbl"},
		Actions: map[string]string{
			"forward_tbl":              "forward",
			"l3_i.ipv4_i.ipv4_lpm_tbl": "l3_i.ipv4_i.process",
			"l3_i.ipv6_i.ipv6_lpm_tbl": "l3_i.ipv6_i.process",
		},
		ArgCount: 3, ArgMax: 1 << 16,
		Groups: []uint64{1, 2},
		Ports:  []uint64{1, 2, 3, 4},
	})

	data := pkt.NewBuilder().
		Ethernet(0xFF, 0xEE, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 0x0B000001, Dst: 0x0A000042}).
		TCP(1234, 80).Bytes()

	const (
		workers = 4
		packets = 300
		churnN  = 1200
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < packets; i++ {
				if _, err := sw.Process(data, uint64(w)); err != nil {
					// Garbage churn entries may legally fault the
					// engines — but only through the typed taxonomy.
					if _, typed := sim.ClassOf(err); !typed {
						errCh <- err
						return
					}
					var ef *sim.EngineFault
					if errors.As(err, &ef) && ef.PanicValue != nil {
						errCh <- err // a recovered panic is still a bug here
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnN; i++ {
			churn.Step()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("process under churn: %v", err)
	}
	if churn.Ops() != churnN {
		t.Errorf("churn ops = %d, want %d", churn.Ops(), churnN)
	}
}

// TestBatchUnderControlPlaneCommit races the parallel batched ingress
// (PR 5) against the full distributed control plane: four-worker
// ProcessBatch loops on a switch whose tables are simultaneously
// rewritten by a churn injector AND by a live two-phase-commit
// transaction arriving over a lossy simulated network. The switch
// carries a 1k-route FIB that a third writer keeps re-installing (with
// checkpoint/restore rounds), and part of each batch routes through it,
// so lookups probe the classifier indexes while writes update them. The
// transaction must still commit; the dataplane may fault only through
// the typed taxonomy, and never via a recovered panic.
func TestBatchUnderControlPlaneCommit(t *testing.T) {
	dp := compileLib(t, "P4")
	sw := dp.NewSwitch()
	sw.EnableMetrics()
	sw.SetWorkers(4)
	rules, fibPkts := fib1k()
	installFIB(t, sw, rules)

	const seed = 0xC0FFEE
	n := netsim.New(seed)
	metrics := ctrlplane.NewMetrics(obs.NewRegistry())
	client, err := ctrlplane.NewClient(n, "ctrl", ctrlplane.Config{Seed: seed, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	agent := ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{
		Name: "s1", CtrlPort: 9, Metrics: metrics, Bus: n.Bus(),
	})
	if err := n.AddSwitch("s1", agent); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPeer("s1", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("ctrl", 1, "s1", 9, netsim.FaultModel{Drop: 0.05, Duplicate: 0.05}); err != nil {
		t.Fatal(err)
	}

	churn := netsim.NewChurn(0xFACE, sw, netsim.ChurnConfig{
		Tables: []string{"forward_tbl", "l3_i.ipv4_i.ipv4_lpm_tbl"},
		Actions: map[string]string{
			"forward_tbl":              "forward",
			"l3_i.ipv4_i.ipv4_lpm_tbl": "l3_i.ipv4_i.process",
		},
		ArgCount: 3, ArgMax: 1 << 16,
		Groups: []uint64{1},
		Ports:  []uint64{1, 2, 3},
	})

	batch := batchTraffic(64)
	for i := 0; i < len(fibPkts); i += 20 {
		batch = append(batch, fibPkts[i])
	}
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, br := range sw.ProcessBatch(batch, uint64(w)) {
					if br.Err == nil {
						continue
					}
					if _, typed := sim.ClassOf(br.Err); !typed {
						errCh <- br.Err
						return
					}
					var ef *sim.EngineFault
					if errors.As(br.Err, &ef) && ef.PanicValue != nil {
						errCh <- br.Err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 600; i++ {
			churn.Step()
		}
	}()
	fibDone := make(chan struct{})
	go func() {
		defer close(fibDone)
		for i := 0; i < 2*len(rules); i++ {
			r := rules[i%len(rules)]
			if err := sw.TryAddEntry(r.table, publicKeys(r.keys), r.action, r.args...); err != nil {
				errCh <- err
				return
			}
			if i%256 == 255 {
				sw.Restore(sw.Checkpoint())
			}
		}
	}()

	ops := []ctrlplane.TxnOp{
		{Peer: "s1", Op: ctrlplane.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
			[]ctrlplane.CtrlKey{ctrlplane.LPM(lib.NetA, 8)}, "l3_i.ipv4_i.process", lib.NhA)},
		{Peer: "s1", Op: ctrlplane.AddEntry("forward_tbl",
			[]ctrlplane.CtrlKey{ctrlplane.Exact(lib.NhA)}, "forward", lib.DmacA, lib.SmacA, lib.PortA)},
	}
	var result *ctrlplane.TxnResult
	if err := client.Transaction(ops, func(r ctrlplane.TxnResult) { result = &r }); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	<-fibDone // the batches keep racing the FIB writer to its end
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("batch under 2PC commit: %v", err)
	}
	if result == nil {
		t.Fatal("network went quiet without resolving the transaction")
	}
	if !result.Committed {
		t.Fatalf("transaction did not commit: %v", result.Err())
	}
}
