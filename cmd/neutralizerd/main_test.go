package main

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"netneutral/internal/tunnel"
)

// parse binds nothing, so every refusal here is a refusal before the
// daemon has a socket.
func TestParseRefusesBadValues(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-anycast", "not-an-address", "bad -anycast"},
		{"-anycast", "", "bad -anycast"},
		{"-customers", "10.10.0.0", "bad -customers"},
		{"-customers", "10.10.0.0/16,,10.11.0.0/16", "bad -customers"},
		{"-customers", "10.10.0.0/33", "bad -customers"},
		{"-root", "abc", "bad -root"},
		{"-root", "00112233445566778899aabbccddee", "bad -root"},     // 15 bytes
		{"-root", "00112233445566778899aabbccddeeff00", "bad -root"}, // 17 bytes
		{"-root", "zz112233445566778899aabbccddeeff", "bad -root"},
		{"-dynpool", "10.99.0.0", "bad -dynpool"},
		{"-workers", "0", "bad -workers"},
		{"-workers", "-1", "bad -workers"},
		{"-workers", "1025", "bad -workers"},
		{"-batch", "0", "bad -batch"},
		{"-batch", "1025", "bad -batch"},
	} {
		cfg, err := parse([]string{"-listen", "127.0.0.1:0", c.flag, c.value})
		if err == nil || cfg != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %q: config %v, error %v; want %q", c.flag, c.value, cfg, err, c.want)
		}
	}
}

func TestParseDefaultsAndValues(t *testing.T) {
	cfg, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (tunnel.Options{Workers: 1, Batch: 1, BatchWait: 500 * time.Microsecond}); cfg.tunnel != want {
		t.Errorf("default transport options %+v, want %+v", cfg.tunnel, want)
	}
	if cfg.listen != ":7777" || cfg.metrics != "" || cfg.root != nil || cfg.epoch != time.Hour || cfg.stats != 30*time.Second {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.core.Anycast != netip.MustParseAddr("10.200.0.1") || !cfg.core.IsCustomer(netip.MustParseAddr("10.10.3.4")) ||
		cfg.core.IsCustomer(netip.MustParseAddr("10.11.0.1")) || cfg.core.DynAddrPool.IsValid() {
		t.Errorf("default neutralizer config: %+v", cfg.core)
	}

	// What the benchmark harness passes, and the rest.
	cfg, err = parse(strings.Fields("-listen 127.0.0.1:0 -root 000102030405060708090a0b0c0d0e0f -epoch 87600h -stats 0 " +
		"-metrics 127.0.0.1:0 -batch 64 -batchwait 1ms -workers 2 -customers 10.10.0.0/16,192.168.0.0/24 -dynpool 10.99.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (tunnel.Options{Workers: 2, Batch: 64, BatchWait: time.Millisecond}); cfg.tunnel != want {
		t.Errorf("transport options %+v, want %+v", cfg.tunnel, want)
	}
	if cfg.root == nil || cfg.root[15] != 0x0f || cfg.stats != 0 || cfg.metrics != "127.0.0.1:0" ||
		!cfg.core.IsCustomer(netip.MustParseAddr("192.168.0.9")) || cfg.core.DynAddrPool != netip.MustParsePrefix("10.99.0.0/24") {
		t.Errorf("parsed: %+v", cfg)
	}
}
