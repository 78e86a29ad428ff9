package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// concConfig is the shared-replica configuration for the concurrency
// tests: the default crypto/rand entropy (safe for concurrent use),
// unlike the deterministic source most single-threaded tests install.
func concConfig(sched *keys.Schedule) Config {
	return Config{
		Schedule:   sched,
		Anycast:    anycast,
		IsCustomer: func(a netip.Addr) bool { return custNet.Contains(a) },
		Clock:      func() time.Time { return tStart.Add(10 * time.Minute) },
	}
}

// mkDataBatch builds n forward-path data packets from n distinct outside
// sources, each with a session key derived exactly as the stateless
// neutralizer will re-derive it, plus — when withBad is set — a sprinkle
// of hostile packets (bad address block, stale epoch, truncated header)
// that must be dropped and counted, never panic.
func mkDataBatch(t testing.TB, sched *keys.Schedule, n int, withBad bool) (pkts [][]byte, good, bad int) {
	t.Helper()
	epoch := sched.EpochAt(tStart.Add(10 * time.Minute))
	payload := make([]byte, 64)
	for i := 0; i < n; i++ {
		src := netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)})
		var nonce keys.Nonce
		binary.BigEndian.PutUint64(nonce[:], uint64(i)+1)
		ks, err := sched.SessionKey(epoch, nonce, src)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := aesutil.EncryptAddr(ks, googAddr, [8]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		sh := &shim.Header{
			Type: shim.TypeData, InnerProto: wire.ProtoUDP,
			Epoch: epoch, Nonce: nonce, HiddenAddr: blk,
		}
		pkt, err := shim.BuildPacket(src, anycast, 0, sh, payload)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, pkt)
		good++
		if withBad && i%7 == 3 {
			// A forged address block: decrypts to garbage, fails the
			// check value, and must be counted as DropBadAddrBlock.
			forged := append([]byte(nil), pkt...)
			forged[len(forged)-len(payload)-1] ^= 0xff
			pkts = append(pkts, forged)
			bad++
		}
		if withBad && i%11 == 5 {
			pkts = append(pkts, []byte{0x45, 0x00, 0x00}) // truncated
			bad++
		}
	}
	return pkts, good, bad
}

// outputKey canonicalizes an output packet for multiset comparison.
func outputMultiset(outs []Outgoing) map[string]int {
	m := make(map[string]int, len(outs))
	for _, o := range outs {
		m[string(o.Pkt)] = m[string(o.Pkt)] + 1
	}
	return m
}

func sameMultiset(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct outputs, want %d", label, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: output count mismatch for one packet: got %d want %d", label, got[k], c)
		}
	}
}

// TestProcessConcurrent hammers a single shared Neutralizer from many
// goroutines (each with its own Scratch) and a sharded Pool, and asserts
// both produce byte-identical outputs to the serial path with consistent
// merged stats. Run under -race this is the statelessness claim made
// mechanically checkable.
func TestProcessConcurrent(t *testing.T) {
	sched := testSchedule()
	pkts, good, bad := mkDataBatch(t, sched, 96, true)

	// Serial reference.
	serial, err := New(concConfig(sched))
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]Outgoing, 0, good)
	for _, pkt := range pkts {
		outs, err := process(serial, pkt)
		if err != nil {
			continue
		}
		ref = append(ref, outs...)
	}
	if len(ref) != good {
		t.Fatalf("serial path forwarded %d packets, want %d", len(ref), good)
	}
	refSet := outputMultiset(ref)
	if got := serial.Stats().Snapshot(); got.DataForwarded != uint64(good) || got.Dropped() != uint64(bad) {
		t.Fatalf("serial stats: forwarded=%d dropped=%d, want %d/%d", got.DataForwarded, got.Dropped(), good, bad)
	}

	// One shared replica, many goroutines, per-goroutine scratches.
	const G = 8
	shared, err := New(concConfig(sched))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewScratch()
			n := 0
			for _, pkt := range pkts {
				// Periodically recycle buffers, as a real worker would.
				if n%32 == 0 {
					s.Reset()
				}
				n++
				outs, err := shared.ProcessScratch(s, pkt)
				if err != nil {
					continue
				}
				for _, o := range outs {
					if refSet[string(o.Pkt)] == 0 {
						errCh <- fmt.Errorf("concurrent output not produced by serial path")
						return
					}
				}
			}
			errCh <- nil
		}()
	}
	wg.Wait()
	for g := 0; g < G; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if got := shared.Stats().Snapshot(); got.DataForwarded != uint64(G*good) || got.Dropped() != uint64(G*bad) {
		t.Fatalf("shared stats: forwarded=%d dropped=%d, want %d/%d", got.DataForwarded, got.Dropped(), G*good, G*bad)
	}

	// Sharded pool, several rounds; outputs must match the serial
	// multiset exactly and merged stats must add up.
	pool, err := NewPool(PoolConfig{Workers: 4, Config: concConfig(sched)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const rounds = 5
	for r := 0; r < rounds; r++ {
		outs, dropped := pool.ProcessBatch(pkts)
		if dropped != bad {
			t.Fatalf("round %d: pool dropped %d, want %d", r, dropped, bad)
		}
		sameMultiset(t, "pool", refSet, outputMultiset(outs))
	}
	// Work actually spread across replicas: with 96 sources and 4
	// shards, no replica should have seen zero packets.
	var forwarded, dropped uint64
	for i, n := range pool.replicas {
		st := n.Stats().Snapshot()
		if st.DataForwarded == 0 {
			t.Errorf("replica %d processed nothing; sharding is degenerate", i)
		}
		forwarded, dropped = forwarded+st.DataForwarded, dropped+st.Dropped()
	}
	if forwarded != uint64(rounds*good) || dropped != uint64(rounds*bad) {
		t.Fatalf("pool stats: forwarded=%d dropped=%d, want %d/%d", forwarded, dropped, rounds*good, rounds*bad)
	}
}

// TestPoolShardingIsInterchangeable pins the anycast property: pools of
// different worker counts (different shard placements) produce identical
// output multisets, because every replica derives the same keys from the
// same schedule.
func TestPoolShardingIsInterchangeable(t *testing.T) {
	sched := testSchedule()
	pkts, good, _ := mkDataBatch(t, sched, 64, false)
	var sets []map[string]int
	for _, workers := range []int{1, 3, 4, 7} {
		pool, err := NewPool(PoolConfig{Workers: workers, Config: concConfig(sched)})
		if err != nil {
			t.Fatal(err)
		}
		outs, dropped := pool.ProcessBatch(pkts)
		if dropped != 0 || len(outs) != good {
			t.Fatalf("workers=%d: %d outputs %d dropped, want %d/0", workers, len(outs), dropped, good)
		}
		sets = append(sets, outputMultiset(outs))
		pool.Close()
	}
	for i := 1; i < len(sets); i++ {
		sameMultiset(t, "workers variant", sets[0], sets[i])
	}
}

// TestReturnPathConcurrent drives the randomized return path from many
// goroutines and verifies each output structurally (the hidden source
// decrypts, under the packet's own derivation, back to the customer).
func TestReturnPathConcurrent(t *testing.T) {
	sched := testSchedule()
	cfg := concConfig(sched)
	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch := sched.EpochAt(cfg.Clock())
	payload := make([]byte, 32)
	const K = 48
	pkts := make([][]byte, K)
	initiators := make([]netip.Addr, K)
	for i := range pkts {
		initiators[i] = netip.AddrFrom4([4]byte{172, 16, 9, byte(i + 1)})
		var nonce keys.Nonce
		binary.BigEndian.PutUint64(nonce[:], uint64(i)+77)
		sh := &shim.Header{
			Type: shim.TypeReturn, InnerProto: wire.ProtoUDP,
			Epoch: epoch, Nonce: nonce, ClearAddr: initiators[i],
		}
		pkt, err := shim.BuildPacket(googAddr, anycast, 0, sh, payload)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = pkt
	}
	const G = 6
	var wg sync.WaitGroup
	errCh := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewScratch()
			for i, pkt := range pkts {
				s.Reset()
				outs, err := shared.ProcessScratch(s, pkt)
				if err != nil {
					errCh <- err
					return
				}
				var ip wire.IPv4
				var out shim.Header
				if err := ip.DecodeFromBytes(outs[0].Pkt); err != nil {
					errCh <- err
					return
				}
				if err := out.DecodeFromBytes(ip.Payload()); err != nil {
					errCh <- err
					return
				}
				if ip.Src != anycast || ip.Dst != initiators[i] {
					errCh <- fmt.Errorf("return %d: addresses %v->%v", i, ip.Src, ip.Dst)
					return
				}
				ks, err := sched.SessionKey(out.Epoch, out.Nonce, initiators[i])
				if err != nil {
					errCh <- err
					return
				}
				hidden, _, err := aesutil.DecryptAddr(ks, out.HiddenAddr)
				if err != nil || hidden != googAddr {
					errCh <- fmt.Errorf("return %d: hidden source decodes to %v (%v)", i, hidden, err)
					return
				}
				if !bytes.Equal(out.Payload(), payload) {
					errCh <- fmt.Errorf("return %d: payload mangled", i)
					return
				}
			}
			errCh <- nil
		}()
	}
	wg.Wait()
	for g := 0; g < G; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if got := shared.Stats().Snapshot().ReturnForwarded; got != G*K {
		t.Fatalf("ReturnForwarded=%d, want %d", got, G*K)
	}
}

// mkReturnBatch builds the customer's return packets on flows first to
// first+n-1 of mkDataBatch's numbering: each hits a scratch that has
// cached the flow's forward packets, and misses anywhere else.
func mkReturnBatch(t testing.TB, sched *keys.Schedule, first, n int) (pkts [][]byte) {
	t.Helper()
	epoch := sched.EpochAt(tStart.Add(10 * time.Minute))
	for i := first; i < first+n; i++ {
		var nonce keys.Nonce
		binary.BigEndian.PutUint64(nonce[:], uint64(i)+1)
		pkt, err := shim.BuildPacket(googAddr, anycast, 0, &shim.Header{
			Type: shim.TypeReturn, InnerProto: wire.ProtoUDP, Epoch: epoch, Nonce: nonce,
			ClearAddr: netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}),
		}, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, pkt)
	}
	return pkts
}

// TestScratchDataPathZeroAlloc guards the zero-allocation property of the
// data path, forward and return, on both sides of the session-key cache:
// a batch of established flows (every packet a hit) and batches of flows
// never seen before (every packet a miss: derivation, key expansion,
// doorkeeper). Config.Rand is nil, so every return packet draws its salt
// from the scratch's generator, over many refills.
func TestScratchDataPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	sched := testSchedule()
	n, err := New(concConfig(sched))
	if err != nil {
		t.Fatal(err)
	}
	const batch, runs = 8, 100
	// AllocsPerRun calls its function once more than runs, to warm up; the
	// three warm-up passes below take the first batch.
	fwd, _, _ := mkDataBatch(t, sched, batch*(runs+2), false)
	ret := mkReturnBatch(t, sched, 0, batch)
	unseen := mkReturnBatch(t, sched, 4096, batch*(runs+2))
	s := NewScratch()
	process := func(batches ...[][]byte) {
		s.Reset()
		for _, pkts := range batches {
			for _, pkt := range pkts {
				if _, err := n.ProcessScratch(s, pkt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Warm up: buffer ring growth, epoch-cipher caching, the generator's
	// seed and the cache's schedule array happen once; the third pass finds
	// every flow cached.
	for i := 0; i < 3; i++ {
		process(fwd[:batch], ret)
	}
	before, key := s.SessionCacheStats(), s.rng.ek
	if allocs := testing.AllocsPerRun(runs, func() { process(fwd[:batch], ret) }); allocs != 0 {
		t.Errorf("established flows: data path allocates %v per batch, want 0", allocs)
	}
	mid := s.SessionCacheStats()
	if mid.Misses != before.Misses || mid.Hits == before.Hits {
		t.Errorf("established flows were not all hits: %+v -> %+v", before, mid)
	}
	if s.rng.ek == key {
		t.Errorf("%d salts drawn without a generator refill", (runs+1)*batch)
	}
	next := batch
	if allocs := testing.AllocsPerRun(runs, func() {
		next += batch
		process(fwd[next-batch:next], unseen[next-batch:next])
	}); allocs != 0 {
		t.Errorf("first packets: data path allocates %v per batch, want 0", allocs)
	}
	if after := s.SessionCacheStats(); after.Hits != mid.Hits {
		t.Errorf("first packets were not all misses: %+v -> %+v", mid, after)
	}
}

// TestPoolProcessBatchZeroAlloc extends the guard to the sharded batch
// interface: once the replicas' buffer rings are warm, a whole batch
// through Pool.ProcessBatch allocates nothing, whether its flows are
// established on the shard workers or new to them.
func TestPoolProcessBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	sched := testSchedule()
	pool, err := NewPool(PoolConfig{Workers: 2, Config: concConfig(sched)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const batch, runs = 64, 100
	pkts, _, _ := mkDataBatch(t, sched, batch*(runs+2), false)
	run := func(pkts [][]byte) {
		if _, dropped := pool.ProcessBatch(pkts); dropped != 0 {
			t.Fatalf("%d packets dropped", dropped)
		}
	}
	hits := func() (h uint64) {
		for _, s := range pool.scr { // quiescent between batches
			h += s.SessionCacheStats().Hits
		}
		return h
	}
	for i := 0; i < 3; i++ {
		run(pkts[:batch]) // warm up
	}
	before := hits()
	if allocs := testing.AllocsPerRun(runs, func() { run(pkts[:batch]) }); allocs != 0 {
		t.Errorf("established flows: ProcessBatch allocates %v per batch, want 0", allocs)
	}
	mid := hits()
	// A shard whose placement seed puts nine of its flows in one cache set
	// keeps missing on them; most of the batch must hit all the same.
	if got := mid - before; got < (runs+1)*batch*3/4 {
		t.Errorf("established flows: %d hits over %d packets", got, (runs+1)*batch)
	}
	next := batch
	if allocs := testing.AllocsPerRun(runs, func() { next += batch; run(pkts[next-batch : next]) }); allocs != 0 {
		t.Errorf("first packets: ProcessBatch allocates %v per batch, want 0", allocs)
	}
	if after := hits(); after != mid {
		t.Errorf("first packets hit the cache %d times", after-mid)
	}
}

// TestPoolSharesDynamicAddrTable pins the one exception to "replicas
// share nothing": the §3.4 dynamic-address table is not derivable from
// the packet, so N return flows spread over the shards must draw N
// distinct addresses from the pool prefix, each stable across batches and
// announced to OnDynAlloc exactly once — not one private table per shard
// handing the same address to a flow on every replica.
func TestPoolSharesDynamicAddrTable(t *testing.T) {
	const flows, workers = 16, 4
	sched := testSchedule()
	dynPool := netip.MustParsePrefix("10.250.0.0/24")
	var mu sync.Mutex
	announced := map[netip.Addr]int{}
	cfg := concConfig(sched)
	cfg.DynAddrPool = dynPool
	cfg.OnDynAlloc = func(a netip.Addr, alloc bool) {
		if alloc {
			mu.Lock()
			announced[a]++
			mu.Unlock()
		}
	}
	pool, err := NewPool(PoolConfig{Workers: workers, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	epoch := sched.EpochAt(cfg.Clock())
	pkts := make([][]byte, flows)
	shards := map[int]bool{}
	for i := range pkts {
		customer := netip.AddrFrom4([4]byte{10, 10, 1, byte(i + 1)})
		peer := netip.AddrFrom4([4]byte{172, 16, 9, byte(i + 1)})
		sh := &shim.Header{
			Type: shim.TypeReturn, Flags: shim.FlagDynamicAddr, InnerProto: wire.ProtoUDP,
			Epoch: epoch, Nonce: keys.Nonce{byte(i + 1)}, ClearAddr: peer,
		}
		pkts[i], err = shim.BuildPacket(customer, anycast, 0, sh, []byte("qos"))
		if err != nil {
			t.Fatal(err)
		}
		shards[shardOf(pkts[i], i, workers)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("flows landed on %d shard(s); the test needs at least 2", len(shards))
	}

	byPeer := map[netip.Addr]netip.Addr{} // flow (by its peer) -> dynamic address
	for batch := 0; batch < 3; batch++ {
		outs, dropped := pool.ProcessBatch(pkts)
		if dropped != 0 || len(outs) != flows {
			t.Fatalf("batch %d: %d outputs, %d dropped", batch, len(outs), dropped)
		}
		for _, o := range outs {
			dyn, peer, err := wire.IPv4Addrs(o.Pkt)
			if err != nil {
				t.Fatal(err)
			}
			if !dynPool.Contains(dyn) {
				t.Fatalf("batch %d: visible source %v outside %v", batch, dyn, dynPool)
			}
			if prev, seen := byPeer[peer]; seen && prev != dyn {
				t.Errorf("flow to %v moved from %v to %v in batch %d", peer, prev, dyn, batch)
			}
			byPeer[peer] = dyn
		}
	}
	distinct := map[netip.Addr]bool{}
	for _, dyn := range byPeer {
		distinct[dyn] = true
	}
	if len(byPeer) != flows || len(distinct) != flows {
		t.Errorf("%d flows drew %d distinct dynamic addresses, want %d", len(byPeer), len(distinct), flows)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(announced) != flows {
		t.Errorf("OnDynAlloc announced %d addresses, want %d", len(announced), flows)
	}
	for a, n := range announced {
		if n != 1 {
			t.Errorf("OnDynAlloc fired %d times for %v, want once", n, a)
		}
	}
	var allocated uint64
	for _, n := range pool.replicas {
		allocated += n.Stats().DynAddrsAllocated.Load()
	}
	if allocated != flows {
		t.Errorf("DynAddrsAllocated = %d, want %d", allocated, flows)
	}
	if got := pool.replicas[workers-1].DynAddrCount(); got != flows {
		t.Errorf("DynAddrCount = %d, want %d", got, flows)
	}
}
