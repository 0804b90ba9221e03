package main

import (
	"encoding/binary"
	"math/rand"

	"microp4/internal/flow"
	"microp4/internal/lib"
	"microp4/internal/sim"
)

// Packet encoders. They append to a caller-owned buffer, so generators
// that rebuild packets inside a timed loop reuse capacity instead of
// allocating.

func ethernet(b []byte, dst, src uint64, etype uint16) []byte {
	var h [14]byte
	putUint48(h[0:6], dst)
	putUint48(h[6:12], src)
	binary.BigEndian.PutUint16(h[12:14], etype)
	return append(b, h[:]...)
}

func putUint48(b []byte, v uint64) {
	for i := 0; i < 6; i++ {
		b[i] = byte(v >> (40 - 8*i))
	}
}

// ipv4 appends a 20-byte IPv4 header with a valid checksum.
func ipv4(b []byte, src, dst uint32, proto, ttl uint8, totalLen int) []byte {
	var h [20]byte
	h[0] = 0x45
	binary.BigEndian.PutUint16(h[2:4], uint16(totalLen))
	h[8], h[9] = ttl, proto
	binary.BigEndian.PutUint32(h[12:16], src)
	binary.BigEndian.PutUint32(h[16:20], dst)
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	sum = (sum & 0xFFFF) + (sum >> 16)
	sum = (sum & 0xFFFF) + (sum >> 16)
	binary.BigEndian.PutUint16(h[10:12], ^uint16(sum))
	return append(b, h[:]...)
}

func ipv6(b []byte, srcHi, srcLo, dstHi, dstLo uint64, next, hop uint8, payloadLen int) []byte {
	var h [40]byte
	h[0] = 0x60
	binary.BigEndian.PutUint16(h[4:6], uint16(payloadLen))
	h[6], h[7] = next, hop
	binary.BigEndian.PutUint64(h[8:16], srcHi)
	binary.BigEndian.PutUint64(h[16:24], srcLo)
	binary.BigEndian.PutUint64(h[24:32], dstHi)
	binary.BigEndian.PutUint64(h[32:40], dstLo)
	return append(b, h[:]...)
}

func tcp(b []byte, sp, dp uint16) []byte {
	var h [20]byte
	binary.BigEndian.PutUint16(h[0:2], sp)
	binary.BigEndian.PutUint16(h[2:4], dp)
	h[12] = 5 << 4
	return append(b, h[:]...)
}

func udp(b []byte, sp, dp uint16, length int) []byte {
	var h [8]byte
	binary.BigEndian.PutUint16(h[0:2], sp)
	binary.BigEndian.PutUint16(h[2:4], dp)
	binary.BigEndian.PutUint16(h[4:6], uint16(length))
	return append(b, h[:]...)
}

// padTo zero-fills b up to a frame size of n bytes.
func padTo(b []byte, n int) []byte {
	for len(b) < n {
		b = append(b, 0)
	}
	return b
}

// pktInfo is what the generator knows about one packet: the output the
// switch must produce (one packet on port, length bytes long) and the
// flow-table tuple the packet carries, for the standalone flow replay.
type pktInfo struct {
	port   uint64
	length int
	key    flow.Key
	dir    uint64
	upsert bool // the program upserts key into its flowtable
}

// rule is one control-plane entry, kept in the engine's key form so it
// can be installed both through the public API and into a twin engine.
type rule struct {
	table  string
	keys   []sim.RuntimeKey
	action string
	args   []uint64
}

const (
	v4LPM    = "l3_i.ipv4_i.ipv4_lpm_tbl"
	v4Action = "l3_i.ipv4_i.process"
	v6LPM    = "l3_i.ipv6_i.ipv6_lpm_tbl"
	v6Action = "l3_i.ipv6_i.process"
	hostSrc  = 0xC0A80002 // 192.168.0.2: source of generated IPv4 traffic
)

// route is one LPM route: an IPv4 prefix (hi holds the address) or the
// high 64 bits of an IPv6 prefix, with its next hop.
type route struct {
	v6   bool
	hi   uint64
	plen int
	nh   uint64
}

func (r route) rule() rule {
	if r.v6 {
		return rule{v6LPM, []sim.RuntimeKey{sim.LPM(r.hi, r.plen)}, v6Action, []uint64{r.nh}}
	}
	return rule{v4LPM, []sim.RuntimeKey{sim.LPM(r.hi, r.plen)}, v4Action, []uint64{r.nh}}
}

// host draws a destination inside the route's prefix.
func (r route) host(rng *rand.Rand) (hi, lo uint64) {
	if r.v6 {
		return r.hi | rng.Uint64()&(1<<(64-r.plen)-1), rng.Uint64() | 1
	}
	return r.hi | uint64(rng.Uint32())&(1<<(32-r.plen)-1), 0
}

// fib is a generated forwarding table: routes, next hops and the port
// each next hop forwards to.
type fib struct {
	routes []route
	nhPort map[uint64]uint64
	rules  []rule // forward_tbl entries first, then the routes
}

// standardFIB mirrors lib.InstallDefaultRules for the router programs:
// NetA/8 → port 1, NetB/8 → port 2, NetV6Hi/32 → port 3.
func standardFIB() fib {
	return fib{
		routes: []route{
			{hi: lib.NetA, plen: 8, nh: lib.NhA},
			{hi: lib.NetB, plen: 8, nh: lib.NhB},
			{v6: true, hi: lib.NetV6Hi, plen: 32, nh: lib.NhV6},
		},
		nhPort: map[uint64]uint64{lib.NhA: lib.PortA, lib.NhB: lib.PortB, lib.NhV6: lib.PortV6},
	}
}

// genFIB draws n4 distinct IPv4 /24 routes inside NetA/8 and NetB/8 and
// n6 distinct IPv6 /48 routes inside NetV6Hi/32, spread over nhops next
// hops numbered from nhBase; each next hop forwards to one of ports.
// The prefixes nest inside the standard routes, so the standard rule
// set alone routes the same traffic along the same code path.
func genFIB(rng *rand.Rand, n4, n6, nhops int, nhBase uint64, ports []uint64) fib {
	f := fib{nhPort: make(map[uint64]uint64, nhops)}
	for i := 0; i < nhops; i++ {
		nh := nhBase + uint64(i)
		port := ports[rng.Intn(len(ports))]
		f.nhPort[nh] = port
		f.rules = append(f.rules, rule{"forward_tbl", []sim.RuntimeKey{sim.Exact(nh)}, "forward",
			[]uint64{lib.DmacA + nh, lib.SmacA, port}})
	}
	seen := make(map[uint64]bool)
	for len(f.routes) < n4 {
		top := uint64(lib.NetA)
		if rng.Intn(2) == 1 {
			top = lib.NetB
		}
		p := top | uint64(rng.Intn(1<<16))<<8
		if !seen[p] {
			seen[p] = true
			f.routes = append(f.routes, route{hi: p, plen: 24, nh: nhBase + uint64(rng.Intn(nhops))})
		}
	}
	for i := 0; i < n6; {
		p := uint64(lib.NetV6Hi) | uint64(rng.Intn(1<<16))<<16
		if !seen[p] {
			seen[p] = true
			f.routes = append(f.routes, route{v6: true, hi: p, plen: 48, nh: nhBase + uint64(rng.Intn(nhops))})
			i++
		}
	}
	for _, r := range f.routes {
		f.rules = append(f.rules, r.rule())
	}
	return f
}

// l3Packet builds one 64-byte frame to a host drawn inside r: IPv4/TCP,
// or IPv6 with no next header. The router rewrites MACs and TTL in
// place, so the expected output has the input's length.
func l3Packet(rng *rand.Rand, r route, port uint64) ([]byte, pktInfo) {
	const size = 64
	b := make([]byte, 0, size)
	hi, lo := r.host(rng)
	sp := uint16(1024 + rng.Intn(60000))
	info := pktInfo{port: port, length: size, upsert: true}
	if r.v6 {
		b = ethernet(b, lib.DmacA, 2, 0x86DD)
		b = ipv6(b, lib.NetV6Hi, uint64(sp), hi, lo, 59, 64, size-14-40)
		info.key = flow.Key{SrcAddr: uint64(sp), DstAddr: lo, Proto: 59}
	} else {
		b = ethernet(b, lib.DmacA, 2, 0x0800)
		b = ipv4(b, hostSrc, uint32(hi), 6, 64, size-14)
		b = tcp(b, sp, 80)
		info.key = flow.Key{SrcAddr: hostSrc, DstAddr: hi, Proto: 6, SrcPort: uint64(sp), DstPort: 80}
	}
	return padTo(b, size), info
}

// l3Traffic draws n frames, IPv4:IPv6 3:1, each to a host of a
// uniformly drawn route of its family.
func l3Traffic(rng *rand.Rand, n int, f fib) ([][]byte, []pktInfo) {
	var v4, v6 []route
	for _, r := range f.routes {
		if r.v6 {
			v6 = append(v6, r)
		} else {
			v4 = append(v4, r)
		}
	}
	pkts := make([][]byte, n)
	infos := make([]pktInfo, n)
	for i := range pkts {
		fam := v4
		if rng.Intn(4) == 3 {
			fam = v6
		}
		r := fam[rng.Intn(len(fam))]
		pkts[i], infos[i] = l3Packet(rng, r, f.nhPort[r.nh])
	}
	return pkts, infos
}

// imix draws a frame size: 64, 576 and 1500 bytes in 7:4:1.
func imix(rng *rand.Rand) int {
	switch n := rng.Intn(12); {
	case n < 7:
		return 64
	case n < 11:
		return 576
	}
	return 1500
}

// Carrier-edge (P10) traffic.
const (
	edgeFlows   = 4096 // concurrent flows: half the NAT64 flowtable
	edgeChurn   = 256  // flows retired and replaced at each pass boundary
	edgeSvcPort = 53
	tunRemote   = 0x08080808
	maxFrame    = 1500 // largest IMIX frame
)

// edgeFlow is one live flow slot. Its three packets are double
// buffered: a churned slot writes its new flow's packets into the
// other buffer set, so a batch assembled across a pass boundary never
// sees a packet rewritten under it.
type edgeFlow struct {
	id      uint64
	churned int // pass in which the slot was last churned
	buf     [2][3][]byte
	cur     int
	info    [3]pktInfo
	inner   uint32 // tunneled packet's inner destination
}

// edgeGen is the seeded nat64-edge stream: per flow, in slot order, an
// outbound IPv6 packet to 64:ff9b::server (learns or refreshes the
// NAT64 flow), the server's IPv4 reply to the pool address (reverse hit,
// translated back to IPv6), and an IPv4-in-IPv4 packet to the tunnel
// endpoint (decapsulated, routed on the inner header). At every pass
// boundary edgeChurn seeded slots get fresh flows, so learns, hits and
// expiries all occur; the retired flows age out of the flowtable.
type edgeGen struct {
	rng    *rand.Rand
	off    uint64
	flows  []edgeFlow
	nextID uint64
	slot   int
	kind   int
	passes int
}

func newEdgeGen(seed int64) *edgeGen {
	g := &edgeGen{rng: rand.New(rand.NewSource(seed ^ 0x6564676567656e)), flows: make([]edgeFlow, edgeFlows)}
	g.off = g.rng.Uint64()
	for i := range g.flows {
		for s := 0; s < 2; s++ {
			for k := 0; k < 3; k++ {
				g.flows[i].buf[s][k] = make([]byte, 0, maxFrame)
			}
		}
		g.newFlow(&g.flows[i])
	}
	return g
}

// tuple maps a flow id injectively onto (server address, client port):
// an odd multiplier and a seeded offset permute 28 bits.
func (g *edgeGen) tuple(id uint64) (server uint32, sport uint16) {
	x := (id*0x9E3779B1 + g.off) & (1<<28 - 1)
	base := uint32(lib.NetA)
	if x>>27 == 1 {
		base = lib.NetB
	}
	return base | uint32(x>>12&0x7FFF) + 1, uint16(1024 + x&0xFFF)
}

func portOf(addr uint32) uint64 {
	if addr&0xFF000000 == lib.NetA {
		return lib.PortA
	}
	return lib.PortB
}

func (g *edgeGen) newFlow(f *edgeFlow) {
	f.id = g.nextID
	g.nextID++
	f.cur ^= 1
	server, sp := g.tuple(f.id)
	dp := uint16(edgeSvcPort)
	inner := uint32(lib.NetA)
	if g.rng.Intn(2) == 1 {
		inner = lib.NetB
	}
	f.inner = inner | uint32(g.rng.Intn(1<<16)) + 1
	bufs := &f.buf[f.cur]

	size := imix(g.rng)
	b := ethernet(bufs[0][:0], lib.DmacA, 2, 0x86DD)
	b = ipv6(b, lib.V6ClientHi, lib.V6ClientLo, lib.Nat64PfxHi, uint64(server), 17, 64, size-54)
	bufs[0] = padTo(udp(b, sp, dp, size-54), size)
	f.info[0] = pktInfo{port: portOf(server), length: size - 20, upsert: true,
		key: flow.Key{SrcAddr: lib.Nat64Pool, DstAddr: uint64(server), Proto: 17, SrcPort: uint64(sp), DstPort: uint64(dp)}}

	size = imix(g.rng)
	b = ethernet(bufs[1][:0], lib.DmacA, 2, 0x0800)
	b = ipv4(b, server, lib.Nat64Pool, 17, 64, size-14)
	bufs[1] = padTo(udp(b, dp, sp, size-34), size)
	f.info[1] = pktInfo{port: lib.PortV6, length: size + 20, upsert: true, dir: 1,
		key: flow.Key{SrcAddr: uint64(server), DstAddr: lib.Nat64Pool, Proto: 17, SrcPort: uint64(dp), DstPort: uint64(sp)}}

	size = imix(g.rng)
	b = ethernet(bufs[2][:0], lib.DmacA, 2, 0x0800)
	b = ipv4(b, tunRemote, lib.TunDst, 4, 32, size-14)
	b = ipv4(b, lib.NetA|uint32(f.id&0xFFFF)+1, f.inner, 17, 64, size-34)
	bufs[2] = padTo(udp(b, sp, 80, size-54), size)
	f.info[2] = pktInfo{port: portOf(f.inner), length: size - 20}
}

// next returns the stream's next packet. The returned bytes stay valid
// until the same slot is churned twice (two passes later).
func (g *edgeGen) next() ([]byte, pktInfo) {
	if g.slot == 0 && g.kind == 0 && g.passes > 0 {
		// Pass boundary: churn edgeChurn distinct slots.
		for n := 0; n < edgeChurn; {
			if f := &g.flows[g.rng.Intn(edgeFlows)]; f.churned != g.passes {
				f.churned = g.passes
				g.newFlow(f)
				n++
			}
		}
	}
	f := &g.flows[g.slot]
	p, info := f.buf[f.cur][g.kind], f.info[g.kind]
	if g.kind++; g.kind == 3 {
		g.kind = 0
		if g.slot++; g.slot == edgeFlows {
			g.slot = 0
			g.passes++
		}
	}
	return p, info
}
