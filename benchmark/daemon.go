//go:build linux

package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"netneutral/internal/crypto/aesutil"
)

// moduleRoot walks up from the working directory to the go.mod of module
// netneutral: the harness runs from the checkout root under `go run` and
// from benchmark/ under `go test`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module netneutral\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod of module netneutral above the working directory")
		}
		dir = parent
	}
}

// buildCmd compiles one of the module's commands into outDir and returns
// the binary's path. Compile time is excluded from every metric.
func buildCmd(root, outDir, pkg string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: building %s: %v\n%s", pkg, err, out)
	}
	return bin, nil
}

// daemonProc is one running neutralizerd (or reflector).
type daemonProc struct {
	cmd     *exec.Cmd
	addr    netip.AddrPort // UDP listen address, parsed from the daemon's log
	metrics string         // http://host:port of -metrics, if requested
	started time.Time      // just before exec

	logMu sync.Mutex
	log   []string // daemon stderr, kept for failure reports
	done  chan struct{}
}

var (
	listenRE  = regexp.MustCompile(`(?:neutralizer|reflector) listening on (\S+),`)
	metricsRE = regexp.MustCompile(`metrics listening on (http://\S+)/metrics`)
)

// startDaemon execs neutralizerd on a free loopback port with the seeded
// root and an epoch that never rotates, and returns once the daemon has
// logged its bound address (so datagrams sent from now on are queued in
// its socket even before the reader goroutine starts). extra carries the
// flags an alternative configuration adds to the defaults.
func startDaemon(bin string, root aesutil.Key, extra ...string) (*daemonProc, error) {
	return startProc(bin, append([]string{
		"-listen", "127.0.0.1:0",
		"-root", hex.EncodeToString(root[:]),
		"-epoch", foreverEpoch.String(),
		"-stats", "0",
	}, extra...)...)
}

// startProc execs a binary that logs the address it listens on and
// returns once it has.
func startProc(bin string, args ...string) (*daemonProc, error) {
	wantMetrics := false
	for _, a := range args {
		if a == "-metrics" {
			wantMetrics = true
		}
	}
	d := &daemonProc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("benchmark: exec %s: %w", bin, err)
	}
	ready := make(chan error, 1)
	go d.readLog(stderr, wantMetrics, ready)
	select {
	case err := <-ready:
		if err != nil {
			_ = d.stop() // the start error is the one to report
			return nil, err
		}
	case <-time.After(10 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("benchmark: %s did not report its address within 10s:\n%s", bin, d.logText())
	}
	return d, nil
}

// readLog scans the daemon's stderr for its addresses, then keeps
// draining so the daemon never blocks on a full pipe.
func (d *daemonProc) readLog(r io.Reader, wantMetrics bool, ready chan<- error) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		if len(d.log) < 200 {
			d.log = append(d.log, line)
		}
		d.logMu.Unlock()
		if signalled {
			continue
		}
		if m := listenRE.FindStringSubmatch(line); m != nil {
			ap, err := netip.ParseAddrPort(m[1])
			if err != nil {
				ready <- fmt.Errorf("benchmark: daemon logged unparsable address %q", m[1])
				signalled = true
				continue
			}
			d.addr = ap
		}
		if m := metricsRE.FindStringSubmatch(line); m != nil {
			d.metrics = m[1]
		}
		if d.addr.IsValid() && (!wantMetrics || d.metrics != "") {
			ready <- nil
			signalled = true
		}
	}
	if !signalled {
		ready <- fmt.Errorf("benchmark: %s exited before listening:\n%s", d.cmd.Path, d.logText())
	}
}

func (d *daemonProc) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemonProc) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to end, and kills it if it
// does not within 3 seconds. It returns only after the process is gone.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine: Wait reports it
	exited := make(chan error, 1)
	go func() {
		<-d.done // stderr EOF first: Wait closes the pipe
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		// A daemon that had not yet installed its handler dies of the
		// SIGTERM itself; either way it is gone, as asked.
		if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
		return err
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("benchmark: %s ignored SIGTERM; killed", d.cmd.Path)
	}
}

// scrape fetches /metrics.json and returns name → value.
func (d *daemonProc) scrape() (map[string]float64, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(d.metrics + "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("benchmark: scraping daemon: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("benchmark: decoding /metrics.json: %w", err)
	}
	out := make(map[string]float64, len(doc.Metrics))
	for _, m := range doc.Metrics {
		out[m.Name] = m.Value
	}
	return out, nil
}
