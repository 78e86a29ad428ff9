// Command neutralizerd runs a neutralizer over a real UDP socket: the
// deployable counterpart of the emulated experiments. It cannot inject
// raw IP packets without privileges, so serialized IPv4 shim packets ride
// inside UDP datagrams; internal/tunnel is that transport and says how
// peers register, where packets are delivered, what -workers, -batch and
// -batchwait mean and how the daemon shuts down. This file is flags →
// config → tunnel.Serve.
//
//	neutralizerd -listen :7777 -anycast 10.200.0.1 -customers 10.10.0.0/16 -workers 4
//
// -metrics ADDR serves Prometheus text on /metrics, a JSON snapshot on
// /metrics.json and pprof under /debug/pprof/: the neutralizer's core_*
// families, each worker's core_session_cache_* (hits / (hits + misses) is
// the hit rate of the traffic mix) and the transport's neutralizerd_*,
// the same set under every flag combination.
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
		err = run(cfg)
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
	rootHex := fs.String("root", "", "32-hex-char master key root (random if empty)")
	fs.DurationVar(&c.epoch, "epoch", time.Hour, "master key epoch length")
	dynPool := fs.String("dynpool", "", "optional dynamic-address pool prefix (enables §3.4 QoS remedy)")
	fs.DurationVar(&c.stats, "stats", 30*time.Second, "stats logging interval (0 disables)")
	fs.IntVar(&c.tunnel.Workers, "workers", 1, "goroutines serving the socket, each with its own scratch, on the one shared neutralizer")
	fs.IntVar(&c.tunnel.Batch, "batch", 1, "datagrams a worker reads before it serves them (1: serve each as it arrives)")
	fs.DurationVar(&c.tunnel.BatchWait, "batchwait", 500*time.Microsecond, "max wait to fill a batch after its first datagram")
	fs.StringVar(&c.metrics, "metrics", "", "serve /metrics, /metrics.json and /debug/pprof on this address (\":0\" picks a port)")
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
	if *rootHex != "" {
		b, err := hex.DecodeString(*rootHex)
		if err != nil || len(b) != len(c.root) {
			return nil, fmt.Errorf("bad -root: want %d hex bytes", len(c.root))
		}
		c.root = (*aesutil.Key)(b)
	}
	if *dynPool != "" {
		if c.core.DynAddrPool, err = netip.ParsePrefix(*dynPool); err != nil {
			return nil, fmt.Errorf("bad -dynpool: %w", err)
		}
	}
	if c.tunnel.Workers < 1 || c.tunnel.Workers > 1024 {
		return nil, fmt.Errorf("bad -workers %d (1..1024)", c.tunnel.Workers)
	}
	// Each batch slot owns a full-datagram (64 KiB) read buffer, so the
	// cap keeps a worker's upfront allocation to at most 64 MiB.
	if c.tunnel.Batch < 1 || c.tunnel.Batch > 1024 {
		return nil, fmt.Errorf("bad -batch %d (1..1024)", c.tunnel.Batch)
	}
	return c, nil
}

func run(c *config) error {
	if c.root == nil {
		c.root = new(aesutil.Key)
		if _, err := rand.Read(c.root[:]); err != nil {
			return err
		}
		log.Printf("generated master key root %s (replicas must share it)", hex.EncodeToString(c.root[:]))
	}
	c.core.Schedule = keys.NewSchedule(*c.root, time.Now().Truncate(c.epoch), c.epoch)
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
	log.Printf("neutralizer listening on %s, anycast %v, customers %v (%d worker(s), batch=%d)",
		conn.LocalAddr(), c.core.Anycast, c.customers, c.tunnel.Workers, c.tunnel.Batch)

	var reg *obs.Registry
	var mln net.Listener
	if c.metrics != "" {
		if mln, err = net.Listen("tcp", c.metrics); err != nil {
			return fmt.Errorf("bad -metrics: %w", err)
		}
		reg = obs.NewRegistry()
	}
	t := tunnel.New(conn, neut, c.tunnel, reg)
	if mln != nil { // serve only once New has registered every family
		log.Printf("metrics listening on http://%s/metrics", mln.Addr())
		go func() { _ = http.Serve(mln, obs.NewHandler(obs.HandlerConfig{Source: reg})) }()
	}
	if c.stats > 0 {
		go func() {
			for range time.Tick(c.stats) {
				s := neut.Stats().Snapshot()
				log.Printf("stats: setups=%d data=%d return=%d grants=%d drops(epoch=%d,block=%d,cust=%d,malformed=%d,dynpool=%d) peers=%d",
					s.KeySetups, s.DataForwarded, s.ReturnForwarded,
					s.GrantsStamped, s.DropStaleEpoch, s.DropBadAddrBlock,
					s.DropNotCustomer, s.DropMalformed, s.DropDynExhausted, t.Peers())
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("shutting down")
		t.Close()
	}()
	return t.Serve()
}
