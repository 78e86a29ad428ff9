// Command neutralizerd runs a neutralizer over a real UDP socket: the
// deployable counterpart of the emulated experiments. It cannot inject
// raw IP packets without privileges, so serialized IPv4 shim packets ride
// inside UDP datagrams; internal/tunnel is that transport and says how
// peers register, where packets are delivered, what -workers and -batch
// mean and how the daemon shuts down. This file is flags → config →
// tunnel.Serve.
//
//	neutralizerd -listen :7777 -anycast 10.200.0.1 -customers 10.10.0.0/16 -workers 4
//
// The master key root is the one secret every hidden address rests on.
// -rootfile PATH reads it from a 0600 file, which keeps it out of argv;
// -root HEX takes it on the command line, where any local user can read
// it. Without either the daemon draws one. Only a fingerprint of the
// root is ever logged: a KDF of it under a fixed label, equal on replicas
// that share it.
//
// -metrics ADDR serves Prometheus text on /metrics, a JSON snapshot on
// /metrics.json and pprof under /debug/pprof/ (never the cmdline
// handler): the neutralizer's core_* families, each worker's
// core_session_cache_* (hits / (hits + misses) is the hit rate of the
// traffic mix) and the transport's neutralizerd_*, the same set under
// every flag combination.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/obs"
	"netneutral/internal/tunnel"
)

func main() {
	cfg, err := parse(os.Args[1:])
	if err == nil {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		err = run(cfg, stop)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) { // -h has printed the usage
		log.Fatalf("neutralizerd: %v", err)
	}
}

// config is the command line, validated.
type config struct {
	listen, metrics string
	epoch, stats    time.Duration
	root            *aesutil.Key // nil: draw one at start
	customers       []netip.Prefix
	core            core.Config // all but Schedule, which needs the root and the clock
	tunnel          tunnel.Options
}

// parse reads and checks the flags. It binds, draws and logs nothing, so
// a bad value is refused before the daemon has touched anything.
func parse(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("neutralizerd", flag.ContinueOnError)
	fs.StringVar(&c.listen, "listen", ":7777", "UDP listen address")
	anycast := fs.String("anycast", "10.200.0.1", "anycast service address (inner IPv4)")
	customers := fs.String("customers", "10.10.0.0/16", "comma-separated customer prefixes")
	rootHex := fs.String("root", "", "32-hex-char master key root, visible to every local user in argv (random if neither this nor -rootfile is set)")
	rootFile := fs.String("rootfile", "", "read the 32-hex-char master key root from this regular file of mode 0600")
	fs.DurationVar(&c.epoch, "epoch", time.Hour, "master key epoch length (at least 1s); epochs are numbered from the Unix epoch")
	dynPool := fs.String("dynpool", "", "optional dynamic-address pool prefix (enables §3.4 QoS remedy)")
	fs.DurationVar(&c.stats, "stats", 30*time.Second, "stats logging interval (0 disables)")
	fs.IntVar(&c.tunnel.Workers, "workers", 1, "goroutines serving the socket, each with its own scratch, on the one shared neutralizer; one waiting for a datagram blocks in the kernel and holds an OS thread")
	fs.IntVar(&c.tunnel.Batch, "batch", 64, "most datagrams a worker takes from the socket in one read; it waits for one and takes what is queued behind it, never waiting for more")
	fs.StringVar(&c.metrics, "metrics", "", "serve /metrics, /metrics.json and pprof's profiles under /debug/pprof/ (not its cmdline) on this address (\":0\" picks a port)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if c.core.Anycast, err = netip.ParseAddr(*anycast); err != nil {
		return nil, fmt.Errorf("bad -anycast: %w", err)
	}
	for _, p := range strings.Split(*customers, ",") {
		pfx, err := netip.ParsePrefix(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -customers entry %q: %w", p, err)
		}
		c.customers = append(c.customers, pfx)
	}
	c.core.IsCustomer = func(a netip.Addr) bool {
		for _, p := range c.customers {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}
	switch {
	case *rootHex != "" && *rootFile != "":
		return nil, errors.New("give -root or -rootfile, not both")
	case *rootHex != "":
		if c.root, err = parseRoot(*rootHex); err != nil {
			return nil, fmt.Errorf("bad -root: %w", err)
		}
	case *rootFile != "":
		if c.root, err = readRoot(*rootFile); err != nil {
			return nil, fmt.Errorf("bad -rootfile: %w", err)
		}
	}
	if *dynPool != "" {
		if c.core.DynAddrPool, err = netip.ParsePrefix(*dynPool); err != nil {
			return nil, fmt.Errorf("bad -dynpool: %w", err)
		}
	}
	// Epoch numbers are 32 bits: at 1 s epochs they last until 2106.
	if c.epoch < time.Second {
		return nil, fmt.Errorf("bad -epoch %v (at least 1s)", c.epoch)
	}
	if c.tunnel.Workers < 1 || c.tunnel.Workers > 1024 {
		return nil, fmt.Errorf("bad -workers %d (1..1024)", c.tunnel.Workers)
	}
	// Each batch slot is a full-datagram (64 KiB) read buffer. A worker
	// starts with one and doubles them after a read that fills them all,
	// keeping them, so the cap keeps a worker's read buffers to at most
	// 64 MiB. A batch's outputs stay in the worker's
	// Scratch until its write, so a flood of large packets can grow that
	// ring by about as much again: some 128 MiB a worker in all.
	if c.tunnel.Batch < 1 || c.tunnel.Batch > 1024 {
		return nil, fmt.Errorf("bad -batch %d (1..1024)", c.tunnel.Batch)
	}
	return c, nil
}

// parseRoot decodes a root written as hex.
func parseRoot(s string) (*aesutil.Key, error) {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(aesutil.Key{}) {
		return nil, fmt.Errorf("want %d hex bytes", len(aesutil.Key{}))
	}
	return (*aesutil.Key)(b), nil
}

// readRoot reads a hex root, surrounding white space ignored, from a
// regular file only its owner can read or write.
func readRoot(path string) (*aesutil.Key, error) {
	fi, err := os.Lstat(path)
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() || fi.Mode().Perm() != 0o600 {
		return nil, fmt.Errorf("%s is %v, want a regular file of mode 0600", path, fi.Mode())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseRoot(strings.TrimSpace(string(b)))
}

// fingerprint names a root without revealing it: the first 8 bytes of a
// KDF of the root under a fixed label, so replicas can be checked to
// share a root.
func fingerprint(root *aesutil.Key) string {
	k := aesutil.DeriveKey(*root, []byte("neutralizerd root fingerprint"))
	return hex.EncodeToString(k[:8])
}

// schedule numbers epochs from the Unix epoch, so KM depends only on the
// root and the instant: every replica sharing a root and -epoch agrees on
// the epoch in force, however long each has been running.
func (c *config) schedule() *keys.Schedule {
	return keys.NewSchedule(*c.root, time.Unix(0, 0), c.epoch)
}

// run serves until stop delivers a signal.
func run(c *config, stop <-chan os.Signal) error {
	if c.root == nil {
		c.root = new(aesutil.Key)
		if _, err := rand.Read(c.root[:]); err != nil {
			return err
		}
		log.Printf("generated master key root, fingerprint %s (replicas must share the root)", fingerprint(c.root))
	} else {
		log.Printf("master key root fingerprint %s", fingerprint(c.root))
	}
	c.core.Schedule = c.schedule()
	neut, err := core.New(c.core)
	if err != nil {
		return err
	}
	pc, err := net.ListenPacket("udp", c.listen)
	if err != nil {
		return err
	}
	conn := pc.(*net.UDPConn) // what ListenPacket returns for "udp"
	defer conn.Close()
	sock, err := tunnel.Socket(conn)
	if err != nil {
		return err
	}
	log.Printf("neutralizer listening on %s, anycast %v, customers %v (%d worker(s), batch=%d)",
		conn.LocalAddr(), c.core.Anycast, c.customers, c.tunnel.Workers, c.tunnel.Batch)

	var reg *obs.Registry
	var mln net.Listener
	if c.metrics != "" {
		if mln, err = net.Listen("tcp", c.metrics); err != nil {
			return fmt.Errorf("bad -metrics: %w", err)
		}
		defer mln.Close()
		reg = obs.NewRegistry()
	}
	t := tunnel.New(sock, neut, c.tunnel, reg)
	if mln != nil { // serve only once New has registered every family
		log.Printf("metrics listening on http://%s/metrics", mln.Addr())
		go func() { _ = http.Serve(mln, obs.NewHandler(obs.HandlerConfig{Source: reg})) }()
	}
	if c.stats > 0 {
		tick := time.NewTicker(c.stats)
		done := make(chan struct{})
		defer func() { tick.Stop(); close(done) }()
		go func() {
			for {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				s := neut.Stats().Snapshot()
				log.Printf("stats: setups=%d data=%d return=%d grants=%d drops(epoch=%d,block=%d,cust=%d,malformed=%d,dynpool=%d) peers=%d",
					s.KeySetups, s.DataForwarded, s.ReturnForwarded,
					s.GrantsStamped, s.DropStaleEpoch, s.DropBadAddrBlock,
					s.DropNotCustomer, s.DropMalformed, s.DropDynExhausted, t.Peers())
			}
		}()
	}
	go func() {
		<-stop
		log.Print("shutting down")
		t.Close()
	}()
	return t.Serve()
}
