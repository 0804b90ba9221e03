package microp4_test

import (
	"fmt"
	"math/rand"
	"testing"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

const (
	fibV4    = "l3_i.ipv4_i.ipv4_lpm_tbl"
	fibV6    = "l3_i.ipv6_i.ipv6_lpm_tbl"
	fibV4Act = "l3_i.ipv4_i.process"
	fibV6Act = "l3_i.ipv6_i.process"
	fibV4Net = 0x0B000000          // 11.0.0.0: 1,024 /24s under it
	fibV6Net = 0x20010DB8_00010000 // 2001:db8:1::/48 and the 255 /48s after it
)

// fibRule is one entry of the P4 test FIB.
type fibRule struct {
	table  string
	keys   []sim.RuntimeKey
	action string
	args   []uint64
}

// fib1k is a P4 forwarding table at the size the benchmark's l3-fib1k
// workload installs: 1,024 IPv4 /24 and 256 IPv6 /48 routes over 64
// next hops, the next hops' forward entries, and one packet into each
// route. The routes sit outside the standard rule set's prefixes.
func fib1k() ([]fibRule, [][]byte) {
	var rules []fibRule
	var pkts [][]byte
	for nh := uint64(1); nh <= 64; nh++ {
		rules = append(rules, fibRule{"forward_tbl", []sim.RuntimeKey{sim.Exact(nh)}, "forward",
			[]uint64{lib.DmacA, lib.SmacA, 1 + nh%4}})
	}
	for i := uint64(0); i < 1024; i++ {
		rules = append(rules, fibRule{fibV4, []sim.RuntimeKey{sim.LPM(fibV4Net|i<<8, 24)}, fibV4Act,
			[]uint64{1 + i%64}})
		pkts = append(pkts, pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 17, Src: 0xC0A80002, Dst: uint32(fibV4Net | i<<8 | 7)}).
			UDP(1, 2, 8).Bytes())
	}
	for i := uint64(0); i < 256; i++ {
		rules = append(rules, fibRule{fibV6, []sim.RuntimeKey{sim.LPM(fibV6Net+i<<16, 48)}, fibV6Act,
			[]uint64{1 + i%64}})
		pkts = append(pkts, pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
			IPv6(pkt.IPv6Opts{NextHdr: 59, HopLimit: 9, DstHi: fibV6Net + i<<16 + 5, DstLo: 1}).Bytes())
	}
	return rules, pkts
}

func publicKeys(ks []sim.RuntimeKey) []microp4.Key {
	out := make([]microp4.Key, len(ks))
	for i, k := range ks {
		switch {
		case k.DontCare:
			out[i] = microp4.Any()
		case k.PrefixLen > 0:
			out[i] = microp4.LPM(k.Value, k.PrefixLen)
		default:
			out[i] = microp4.Exact(k.Value)
		}
	}
	return out
}

func installFIB(t testing.TB, sw *microp4.Switch, rules []fibRule) {
	t.Helper()
	for _, r := range rules {
		if err := sw.TryAddEntry(r.table, publicKeys(r.keys), r.action, r.args...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClassifierLockstepP4 drives a compiled and a reference switch on
// P4 through one seeded stream that interleaves packets with every kind
// of control-plane write: route and next-hop inserts (duplicate keys
// and every prefix length included), table clears, default overrides,
// checkpoint/restore and a staged generation cut over. The compiled
// switch classifies through its indexes, the reference one through the
// linear oracle; every output must be byte-identical, so each write is
// also seen by the very next packet.
func TestClassifierLockstepP4(t *testing.T) {
	dp := compileLib(t, "P4")
	sws := [2]*microp4.Switch{dp.NewSwitch(), dp.NewSwitchWith(microp4.EngineReference)}
	rules, fibPkts := fib1k()
	for _, sw := range sws {
		installLibRules(sw, "P4")
		installFIB(t, sw, rules)
	}
	rng := rand.New(rand.NewSource(13))
	v4 := func() uint32 {
		if rng.Intn(2) == 0 {
			return uint32(fibV4Net) | rng.Uint32()&0x3FFFF
		}
		return uint32(lib.NetA) | rng.Uint32()&0xFFFFFF
	}
	randPkt := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return fibPkts[rng.Intn(len(fibPkts))]
		case 1:
			return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
				IPv6(pkt.IPv6Opts{NextHdr: 59, HopLimit: 9, DstHi: fibV6Net + rng.Uint64()&0xFFFFFFFF, DstLo: 1}).Bytes()
		}
		return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: []uint8{0, 1, 64, 64}[rng.Intn(4)], Protocol: 6, Src: 1, Dst: v4()}).TCP(1, 2).Bytes()
	}
	// each applies one control-plane write to both switches; the
	// write's error, typed or nil, must agree too.
	each := func(op string, f func(sw *microp4.Switch) error) {
		var errs [2]string
		for i, sw := range sws {
			if err := f(sw); err != nil {
				errs[i] = err.Error()
			}
		}
		if errs[0] != errs[1] {
			t.Fatalf("%s: compiled error %q, reference error %q", op, errs[0], errs[1])
		}
	}
	var cps [2]*microp4.Checkpoint
	writes := map[string]int{}
	forwarded := 0
	for step := 0; step < 4000; step++ {
		op := ""
		switch r := rng.Intn(100); {
		case r < 12:
			op = "add-v4"
			plen := rng.Intn(33)
			key := microp4.LPM(uint64(v4())&^(1<<(32-plen)-1), plen)
			if plen == 0 && rng.Intn(2) == 0 {
				key = microp4.Any()
			}
			nh := uint64(1 + rng.Intn(70)) // some next hops have no forward entry
			each(op, func(sw *microp4.Switch) error {
				return sw.TryAddEntry(fibV4, []microp4.Key{key}, fibV4Act, nh)
			})
		case r < 16:
			op = "add-v6"
			plen := 1 + rng.Intn(64)
			v := (fibV6Net + rng.Uint64()&0xFFFFFFFF) &^ (1<<(64-plen) - 1)
			if plen == 64 {
				v = fibV6Net + rng.Uint64()&0xFFFFFFFF
			}
			nh := uint64(1 + rng.Intn(64))
			each(op, func(sw *microp4.Switch) error {
				return sw.TryAddEntry(fibV6, []microp4.Key{microp4.LPM(v, plen)}, fibV6Act, nh)
			})
		case r < 19:
			op = "add-forward"
			nh := uint64(1 + rng.Intn(70))
			port := uint64(1 + rng.Intn(4))
			each(op, func(sw *microp4.Switch) error {
				return sw.TryAddEntry("forward_tbl", []microp4.Key{microp4.Exact(nh)}, "forward",
					lib.DmacA, lib.SmacA, port)
			})
		case r < 20:
			op = "clear"
			table := []string{fibV4, fibV6, "forward_tbl"}[rng.Intn(3)]
			each(op, func(sw *microp4.Switch) error { return sw.TryClearTable(table) })
			if rng.Intn(2) == 0 { // refill it, after the routes added since
				for _, r := range rules {
					if r.table == table {
						each("refill", func(sw *microp4.Switch) error {
							return sw.TryAddEntry(r.table, publicKeys(r.keys), r.action, r.args...)
						})
					}
				}
			}
		case r < 21:
			op = "default"
			nh := uint64(1 + rng.Intn(64))
			each(op, func(sw *microp4.Switch) error { return sw.TrySetDefault(fibV4, fibV4Act, nh) })
		case r < 22:
			op = "checkpoint"
			for i, sw := range sws {
				cps[i] = sw.Checkpoint()
			}
		case r < 23:
			op = "restore"
			for i, sw := range sws {
				sw.Restore(cps[i])
			}
		case r < 24 && writes["upgrade"] < 3:
			op = "upgrade"
			each(op, func(sw *microp4.Switch) error {
				if _, err := sw.StageGeneration(dp); err != nil {
					return err
				}
				_, err := sw.CutOver()
				return err
			})
		default:
			p := randPkt()
			in := uint64(rng.Intn(4))
			want, werr := sws[1].Process(p, in)
			got, gerr := sws[0].Process(p, in)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d (after %v): compiled %v %v, reference %v %v",
					step, writes, got, gerr, want, werr)
			}
			forwarded += len(got)
			continue
		}
		writes[op]++
	}
	t.Logf("%d packets forwarded, writes %v", forwarded, writes)
	if forwarded < 1000 {
		t.Errorf("only %d packets forwarded; the stream barely reaches the FIB", forwarded)
	}
	for _, op := range []string{"add-v4", "add-v6", "add-forward", "clear", "default", "checkpoint", "restore", "upgrade"} {
		if writes[op] == 0 {
			t.Errorf("stream never exercised %s", op)
		}
	}
}
