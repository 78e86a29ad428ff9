// Sharded, zero-allocation data plane.
//
// The paper's load-bearing property is that the neutralizer is stateless:
// Ks = hash(KM, nonce, srcIP) is recomputed from each packet, so "any
// neutralizer [sharing KM] can decrypt the destination address and
// forward the packet". A Pool is that claim made executable inside one
// process: N independent Neutralizer replicas, constructed from the same
// Config (and thus the same master-key Schedule), each owning a worker
// goroutine and a Scratch. Packets are sharded by source address, but any
// shard assignment whatsoever produces the same outputs — the concurrency
// tests exercise exactly that interchangeability. Placement decides only
// speed: a source that stays on one shard finds its expanded session key
// in that worker's Scratch cache. The replicas share only what a packet
// cannot carry: the optional §3.4 dynamic-address table.
//
// Per-replica Stats are kept on independent cache lines (each replica has
// its own atomic counter block) and merged on demand via Snapshot/Merge,
// so counting never serializes the data path.
package core

import (
	"encoding/binary"
	"runtime"
	"sync"

	"netneutral/internal/wire"
)

// PoolConfig configures a Pool.
type PoolConfig struct {
	// Workers is the number of replicas/shards (default: GOMAXPROCS).
	Workers int
	// Config is the replica configuration. All replicas share the same
	// Schedule, IsCustomer and Rand; a Rand that is set must therefore be
	// safe for concurrent use (nil is: each worker's Scratch draws alone).
	Config Config
}

// Pool runs N stateless Neutralizer replicas behind a batch interface.
// ProcessBatch may be called from one goroutine at a time; the batch is
// fanned out to the shard workers and the call returns when every packet
// has been processed.
type Pool struct {
	replicas []*Neutralizer
	scr      []*Scratch
	work     []chan struct{}
	wg       sync.WaitGroup

	pkts   [][]byte
	idx    [][]int32
	active []int // shards with packets this batch (reused)
	errs   []int
	outs   []Outgoing
	closed bool
}

// NewPool builds the replicas and starts one worker goroutine per shard.
func NewPool(cfg PoolConfig) (*Pool, error) {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		replicas: make([]*Neutralizer, w),
		scr:      make([]*Scratch, w),
		work:     make([]chan struct{}, w),
		idx:      make([][]int32, w),
		errs:     make([]int, w),
	}
	for i := 0; i < w; i++ {
		n, err := New(cfg.Config)
		if err != nil {
			return nil, err
		}
		p.replicas[i] = n
		// Everything else a replica holds is derived from the packet; the
		// dynamic-address table is not, so all replicas use replica 0's.
		n.dyn = p.replicas[0].dyn
		p.scr[i] = NewScratch()
		p.work[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p, nil
}

// worker drains batch signals for shard i. Worker state (scratch, index
// list, error count) is owned exclusively by this goroutine between the
// signal and the matching wg.Done.
func (p *Pool) worker(i int) {
	n := p.replicas[i]
	s := p.scr[i]
	for range p.work[i] {
		s.Reset()
		drops := 0
		for _, j := range p.idx[i] {
			if _, err := n.ProcessScratch(s, p.pkts[j]); err != nil {
				drops++
			}
		}
		p.errs[i] = drops
		p.wg.Done()
	}
}

// shardOf maps a packet to a shard by FNV-hashing its source address, so
// one source's packets stay cache-warm on one replica (its session-key
// schedule included). Statelessness means this is purely a locality
// heuristic: ANY placement yields identical outputs. Packets too short to carry an address round-robin
// by index.
func shardOf(pkt []byte, i, n int) int {
	if len(pkt) >= wire.IPv4HeaderLen {
		src := binary.BigEndian.Uint32(pkt[12:16])
		h := uint32(2166136261)
		for s := 0; s < 32; s += 8 {
			h = (h ^ (src >> s & 0xff)) * 16777619
		}
		return int(h % uint32(n))
	}
	return i % n
}

// ProcessBatch pushes a batch of serialized IPv4 packets through the
// shard workers and returns every output packet plus the number of inputs
// dropped (malformed, stale, non-customer, non-shim — itemized in each
// replica's Stats()). Outputs alias pool-owned buffers and are valid only until the
// next ProcessBatch call; steady-state batches allocate nothing.
//
// Output ordering is deterministic: grouped by shard, input order within
// a shard.
func (p *Pool) ProcessBatch(pkts [][]byte) (outs []Outgoing, dropped int) {
	if p.closed {
		return nil, len(pkts)
	}
	w := len(p.replicas)
	for i := range p.idx {
		p.idx[i] = p.idx[i][:0]
	}
	for j, pkt := range pkts {
		sh := shardOf(pkt, j, w)
		p.idx[sh] = append(p.idx[sh], int32(j))
	}
	p.pkts = pkts
	// Wake only the shards that actually drew packets: small batches on
	// wide pools should not pay worker-count wakeups.
	p.active = p.active[:0]
	for i := range p.idx {
		if len(p.idx[i]) > 0 {
			p.active = append(p.active, i)
		}
	}
	p.wg.Add(len(p.active))
	for _, i := range p.active {
		p.work[i] <- struct{}{}
	}
	p.wg.Wait()
	p.outs = p.outs[:0]
	for _, i := range p.active {
		p.outs = append(p.outs, p.scr[i].outs...)
		dropped += p.errs[i]
	}
	return p.outs, dropped
}

// Close stops the workers. The pool must not be processing a batch.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, c := range p.work {
		close(c)
	}
}
