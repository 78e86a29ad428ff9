package main

import (
	"bytes"
	"compress/gzip"
	"encoding/hex"
	"io"
	"log"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"netneutral/internal/crypto/keys"
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
		{"-epoch", "999ms", "bad -epoch"},
		{"-epoch", "0", "bad -epoch"},
		{"-epoch", "-1h", "bad -epoch"},
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
	if want := (tunnel.Options{Workers: 1, Batch: 64}); cfg.tunnel != want {
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
		"-metrics 127.0.0.1:0 -batch 64 -workers 2 -customers 10.10.0.0/16,192.168.0.0/24 -dynpool 10.99.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (tunnel.Options{Workers: 2, Batch: 64}); cfg.tunnel != want {
		t.Errorf("transport options %+v, want %+v", cfg.tunnel, want)
	}
	if cfg.root == nil || cfg.root[15] != 0x0f || cfg.stats != 0 || cfg.metrics != "127.0.0.1:0" ||
		!cfg.core.IsCustomer(netip.MustParseAddr("192.168.0.9")) || cfg.core.DynAddrPool != netip.MustParsePrefix("10.99.0.0/24") {
		t.Errorf("parsed: %+v", cfg)
	}
	if cfg, err = parse([]string{"-batch", "1"}); err != nil || cfg.tunnel.Batch != 1 {
		t.Errorf("-batch 1: %+v, %v", cfg, err)
	}
}

// TestReplicasNumberEpochsAlike configures two daemons with one root on
// either side of an epoch boundary: both must number an instant the same,
// the epoch of the Unix clock, or packets keyed under one are stale at
// the other and at a restarted one.
func TestReplicasNumberEpochsAlike(t *testing.T) {
	args := strings.Fields("-root 000102030405060708090a0b0c0d0e0f -epoch 1s")
	a, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	schedA := a.schedule()
	time.Sleep(time.Until(time.Now().Truncate(time.Second).Add(time.Second)))
	b, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	schedB := b.schedule()
	for _, at := range []time.Time{time.Now(), time.Unix(1<<31, 0)} {
		if ea, eb := schedA.EpochAt(at), schedB.EpochAt(at); ea != eb || int64(ea) != at.Unix() {
			t.Errorf("at %v: epochs %d and %d, want both %d", at, ea, eb, at.Unix())
		}
	}
}

// writeRoot writes a hex root to a fresh file of the given mode.
func writeRoot(t *testing.T, hexRoot string, mode os.FileMode) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "root")
	if err := os.WriteFile(path, []byte(hexRoot+"\n"), mode); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, mode); err != nil { // WriteFile's mode is masked by umask
		t.Fatal(err)
	}
	return path
}

// TestParseRootFile: -rootfile takes only a regular file of mode 0600,
// never beside -root, and its root keys the schedule exactly as the same
// root given to -root does.
func TestParseRootFile(t *testing.T) {
	const root = "000102030405060708090a0b0c0d0e0f"
	good := writeRoot(t, root, 0o600)
	link := filepath.Join(t.TempDir(), "link")
	if err := os.Symlink(good, link); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"mode 0644", []string{"-rootfile", writeRoot(t, root, 0o644)}, "want a regular file of mode 0600"},
		{"mode 0400", []string{"-rootfile", writeRoot(t, root, 0o400)}, "want a regular file of mode 0600"},
		{"directory", []string{"-rootfile", t.TempDir()}, "want a regular file of mode 0600"},
		{"symlink", []string{"-rootfile", link}, "want a regular file of mode 0600"},
		{"missing", []string{"-rootfile", filepath.Join(t.TempDir(), "none")}, "bad -rootfile"},
		{"short", []string{"-rootfile", writeRoot(t, root[2:], 0o600)}, "want 16 hex bytes"},
		{"both flags", []string{"-root", root, "-rootfile", good}, "not both"},
	} {
		if cfg, err := parse(c.args); err == nil || cfg != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: config %v, error %v; want %q", c.name, cfg, err, c.want)
		}
	}

	fromArg, err := parse([]string{"-root", root, "-epoch", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := parse([]string{"-rootfile", good, "-epoch", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := parse([]string{"-root", "f" + root[1:], "-epoch", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	a, b, o := fromArg.schedule(), fromFile.schedule(), other.schedule()
	src := netip.MustParseAddr("10.10.0.1")
	for _, at := range []time.Time{time.Now(), time.Unix(1<<31, 0)} {
		e := a.EpochAt(at)
		ka, errA := a.SessionKey(e, keys.Nonce{1}, src)
		kb, errB := b.SessionKey(b.EpochAt(at), keys.Nonce{1}, src)
		ko, _ := o.SessionKey(e, keys.Nonce{1}, src)
		if errA != nil || errB != nil || b.EpochAt(at) != e || ka != kb || ka == ko {
			t.Errorf("at %v: -root and -rootfile disagree (epochs %d, %d; errors %v, %v) or another root agrees (%v)",
				at, e, b.EpochAt(at), errA, errB, ka == ko)
		}
	}
}

// syncBuffer is a log output the daemon's goroutines and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonLeaksNoRoot runs the daemon in-process with its metrics
// surface up, once with the root on its command line and once with a
// drawn one, fetches every path obs.NewHandler mounts (and pprof's named
// profiles), and asserts that no body and no log line holds the root's
// bytes, raw or in hex.
func TestDaemonLeaksNoRoot(t *testing.T) {
	for _, given := range []bool{true, false} {
		name := map[bool]string{true: "given", false: "drawn"}[given]
		t.Run(name, func(t *testing.T) { checkNoRootLeak(t, given) })
	}
}

func checkNoRootLeak(t *testing.T, given bool) {
	const hexRoot = "8f1e2d3c4b5a69788796a5b4c3d2e1f0"
	args := []string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-stats", "0"}
	if given {
		args = append(args, "-root", hexRoot)
	}
	// pprof's cmdline handler would serve os.Args: make them the daemon's.
	saved := os.Args
	os.Args = append([]string{"neutralizerd"}, args...)
	defer func() { os.Args = saved }()
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	cfg, err := parse(os.Args[1:])
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, stop) }()
	metricsRE := regexp.MustCompile(`metrics listening on (http://\S+)/metrics`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(10 * time.Millisecond) {
		if m := metricsRE.FindStringSubmatch(logs.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no metrics address logged:\n%s", logs.String())
		}
	}
	root := cfg.root[:] // drawn before the address was logged
	secrets := [][]byte{root, []byte(hex.EncodeToString(root)), []byte(strings.ToUpper(hex.EncodeToString(root)))}
	leaks := func(what string, body []byte) {
		t.Helper()
		if zr, err := gzip.NewReader(bytes.NewReader(body)); err == nil { // profiles are gzipped
			if plain, err := io.ReadAll(zr); err == nil {
				body = append(body, plain...)
			}
		}
		for _, s := range secrets {
			if bytes.Contains(body, s) {
				t.Errorf("%s holds the root (%q)", what, s)
			}
		}
	}

	for _, path := range []string{
		"/metrics", "/metrics.json", "/trace.json", "/debug/pprof/", "/debug/pprof/cmdline",
		"/debug/pprof/profile?seconds=1", "/debug/pprof/symbol", "/debug/pprof/trace?seconds=1",
		"/debug/pprof/goroutine?debug=2", "/debug/pprof/heap?debug=1", "/debug/pprof/allocs",
		"/debug/pprof/threadcreate?debug=1", "/debug/pprof/block", "/debug/pprof/mutex",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		leaks("GET "+path, body)
	}
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the stop signal")
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		leaks("log line "+strconv.Quote(line), []byte(line))
	}
	if !strings.Contains(logs.String(), "fingerprint "+fingerprint(cfg.root)) {
		t.Errorf("the log names no fingerprint of the root:\n%s", logs.String())
	}
}

// TestRunStopsStatsLogging: once run returns, its stats ticker logs no
// more (one line already under way may still land).
func TestRunStopsStatsLogging(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	cfg, err := parse([]string{"-listen", "127.0.0.1:0", "-stats", "10ms"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, stop) }()
	for strings.Count(logs.String(), "stats:") < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	at := strings.Count(logs.String(), "stats:")
	time.Sleep(100 * time.Millisecond) // ten ticks
	if later := strings.Count(logs.String(), "stats:"); later > at+1 {
		t.Errorf("%d stats lines when run returned, %d 100 ms later", at, later)
	}
}
