// E10: real protocol stacks over the simulator. Earlier experiments
// drive shaped lookalike traffic through the neutralizer; this one runs
// the genuine articles — the dnssim wire protocol spoken by a blocking
// resolver client, and unmodified net/http servers and clients — over
// simnet's virtual-time sockets, then points the E7-trained DPI
// classifier and an E8-style audit vantage at that authentic traffic.
// The point is closure: the paper's claims survive contact with real
// protocol state machines, not just traffic generators.
package eval

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	mathrand "math/rand"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"netneutral/internal/audit"
	"netneutral/internal/dnssim"
	"netneutral/internal/dpi"
	"netneutral/internal/e2e"
	"netneutral/internal/netem"
	"netneutral/internal/obs"
	"netneutral/internal/simnet"
	"netneutral/internal/wire"
)

// RealProtoConfig parameterizes E10.
type RealProtoConfig struct {
	// Seed drives every RNG in the experiment.
	Seed int64
}

const (
	// realClients is the number of outside HTTP clients (each paired
	// with one customer server) in the neutralized-HTTP phase.
	realClients = 4
	// realRequests is the number of keep-alive HTTP requests per client.
	realRequests = 3
	// realTrials is the number of audit measurement windows per role in
	// the audit phase.
	realTrials = 8
)

// realDNSResult is the DNS phase's measurement: a blocking ConnClient
// resolving over simnet UDP against the unmodified resolver.
type realDNSResult struct {
	PlainRTT, EncRTT time.Duration
	NXDomainOK       bool // plain lookup of a missing name fails correctly
	TimeoutOK        bool // read deadline fires on a dead port, in virtual time
	// Queries/Encrypted are resolver-side totals, proving the real
	// codec ran.
	Queries, Encrypted uint64
}

// realHTTPResult is the neutralized-HTTP phase's measurement.
type realHTTPResult struct {
	OK, Want int // completed requests
	MeanRTT  time.Duration
	Flows    int // per-client shim flows the transit DPI tap observed
	// Hist counts transit-classified flows per dpi class (index 0 is
	// ClassUnknown: observed but never classified).
	Hist [dpi.NumClasses + 1]int
}

// RealProtoStats is the full E10 outcome.
type RealProtoStats struct {
	Cfg  RealProtoConfig
	DNS  realDNSResult
	HTTP realHTTPResult
	// Neutral and Throttled are the audit vantage's verdicts over real
	// HTTP request latencies, without and with a transit throttler
	// targeting the suspect client.
	Neutral, Throttled audit.Verdict
	// NeutralTrace and ThrottledTrace summarize each audit cell's
	// span-level verification: every packet journey is traced end to
	// end (SampleEvery 1, no eviction), the attribution invariant is
	// enforced exactly, and rule-attributed policy delay is tallied.
	NeutralTrace, ThrottledTrace RealTraceCheck
}

// RealTraceCheck is the outcome of tracing one E10 audit cell wholesale.
type RealTraceCheck struct {
	// Journeys counts complete packet journeys that passed the
	// attribution-sum invariant (components == end-to-end, exactly).
	Journeys int
	// Throttled counts journeys carrying rule-attributed policy delay;
	// ThrottleDelay is that delay summed.
	Throttled     int
	ThrottleDelay time.Duration
}

// quietHTTPLog silences net/http's error logger: server-side noise would
// otherwise interleave nondeterministically with experiment output.
var quietHTTPLog = log.New(io.Discard, "", 0)

// runRealDNS resolves over the fan-out: the client on one outside node,
// the resolver on another, two 1ms hops apart through transit. Plain and
// encrypted lookups must complete with exact virtual RTTs; a lookup of a
// missing name must surface ErrNoSuchName; a query to a dead port must
// end in a virtual-time read deadline.
func runRealDNS(seed int64) (*realDNSResult, error) {
	env, err := newFanoutEnv(seed, netem.FanoutSpec{Hosts: 1, Outside: 2}, false)
	if err != nil {
		return nil, err
	}
	f := env.Fan
	id, err := e2e.NewIdentity(detRand(seed+1), 0)
	if err != nil {
		return nil, err
	}
	resNode := f.Outside[1]
	r := dnssim.NewResolver(resNode, id)
	r.AddRecord(dnssim.Record{
		Name:         "www.example.com",
		Addr:         f.HostAddr(0),
		Neutralizers: []netip.Addr{f.Spec.Anycast},
		PublicKey:    id.Public(),
	})

	n := simnet.New(env.Sim)
	conn, err := n.ListenUDP(f.Outside[0], 0)
	if err != nil {
		return nil, err
	}
	cc := dnssim.NewConnClient(conn, netip.AddrPortFrom(resNode.Addr(), dnssim.Port),
		mathrand.New(mathrand.NewSource(seed+2)))

	res := &realDNSResult{}
	var goErr error
	n.Go(func() {
		goErr = func() error {
			t0 := n.Now()
			rec, err := cc.Lookup("www.example.com")
			if err != nil {
				return fmt.Errorf("plain lookup: %w", err)
			}
			if rec.Addr != f.HostAddr(0) || len(rec.Neutralizers) != 1 {
				return fmt.Errorf("plain lookup returned %+v", rec)
			}
			res.PlainRTT = n.Now().Sub(t0)

			if _, err := cc.Lookup("no.such.name"); errors.Is(err, dnssim.ErrNoSuchName) {
				res.NXDomainOK = true
			}

			t0 = n.Now()
			rec, err = cc.LookupEncrypted(r.Public(), "www.example.com")
			if err != nil {
				return fmt.Errorf("encrypted lookup: %w", err)
			}
			if rec.Addr != f.HostAddr(0) {
				return fmt.Errorf("encrypted lookup returned %+v", rec)
			}
			res.EncRTT = n.Now().Sub(t0)

			// A query to a port nobody serves: the resolver ignores it and
			// the virtual read deadline must end the wait.
			conn.SetReadDeadline(n.Now().Add(250 * time.Millisecond))
			dead := dnssim.NewConnClient(conn, netip.AddrPortFrom(resNode.Addr(), 5999), nil)
			if _, err := dead.Lookup("x"); errors.Is(err, os.ErrDeadlineExceeded) {
				res.TimeoutOK = true
			}
			return nil
		}()
	})
	if err := n.Run(); err != nil {
		return nil, fmt.Errorf("dns phase: %w", err)
	}
	if goErr != nil {
		return nil, fmt.Errorf("dns phase: %w", goErr)
	}
	res.Queries = r.Queries()
	res.Encrypted = r.EncryptedQueries()
	return res, nil
}

// runRealHTTP drives unmodified net/http across the metro through the
// neutralizer: each customer host runs an http.Server on a HostMux
// listener; each outside client bootstraps via an encrypted DNS lookup,
// performs the §3.2 key setup, and issues keep-alive GET requests over a
// stream carried in shim conduits. A passive DPI tap at transit — the
// same classifier E7 trains — observes every packet and classifies the
// per-client flows.
func runRealHTTP(seed int64) (*realHTTPResult, error) {
	// Train the statistical adversary exactly as E7/E8 do.
	cls, _, err := trainClassifier(calibrationConfig(seed + 42))
	if err != nil {
		return nil, err
	}

	link := netem.LinkConfig{Delay: time.Millisecond, QueueLen: 4096}
	env, err := newFanoutEnv(seed+1, netem.FanoutSpec{
		Hosts: realClients, Outside: realClients + 1,
		HostLink: link, EdgeLink: link, TransitLink: link, OutsideLink: link,
	}, true)
	if err != nil {
		return nil, err
	}
	f := env.Fan
	tab := env.tapAtTransit(cls)

	n := simnet.New(env.Sim)

	// The resolver lives on the last outside node.
	rid, err := e2e.NewIdentity(detRand(seed+2), 0)
	if err != nil {
		return nil, err
	}
	resNode := f.Outside[realClients]
	resolver := dnssim.NewResolver(resNode, rid)

	// Customer-side: an endhost per customer, an http.Server accepting
	// streams that arrive as conduit payloads.
	servers := make([]*http.Server, 0, realClients)
	for i := 0; i < realClients; i++ {
		i := i
		host, err := newEndhost(env.Sim, f.Hosts[i], seed+500+int64(i), seed+600+int64(i))
		if err != nil {
			return nil, err
		}
		mux := n.AttachHost(f.Hosts[i], host, nil)
		ln, err := mux.Listen()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("customer-%d.example", i)
		resolver.AddRecord(dnssim.Record{
			Name: name, Addr: f.HostAddr(i),
			Neutralizers: []netip.Addr{f.Spec.Anycast},
			PublicKey:    host.Identity(),
		})
		page := strings.Repeat(fmt.Sprintf("%s content block. ", name), 120)
		srv := &http.Server{ErrorLog: quietHTTPLog, Handler: http.HandlerFunc(
			func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprintf(w, "%s served %s\n%s", name, r.URL.Path, page)
			})}
		servers = append(servers, srv)
		go srv.Serve(ln)
	}

	// Outside-side: per-client endhost + blocking DNS client, then the
	// full bootstrap and keep-alive request loop in a sim goroutine.
	errs := make([]error, realClients)
	rtts := make([]time.Duration, realClients)
	oks := make([]int, realClients)
	for i := 0; i < realClients; i++ {
		i := i
		chost, err := newEndhost(env.Sim, f.Outside[i], seed+700+int64(i), seed+800+int64(i))
		if err != nil {
			return nil, err
		}
		cmux := n.AttachHost(f.Outside[i], chost, nil)
		dnsConn, err := n.ListenUDP(f.Outside[i], 0)
		if err != nil {
			return nil, err
		}
		cc := dnssim.NewConnClient(dnsConn, netip.AddrPortFrom(resNode.Addr(), dnssim.Port),
			mathrand.New(mathrand.NewSource(seed+900+int64(i))))
		n.Go(func() {
			errs[i] = func() error {
				// Stagger starts so bootstraps do not collide at one instant.
				n.Sleep(time.Duration(i) * 50 * time.Millisecond)
				rec, err := cc.LookupEncrypted(resolver.Public(), fmt.Sprintf("customer-%d.example", i))
				if err != nil {
					return fmt.Errorf("dns bootstrap: %w", err)
				}
				neut := rec.Neutralizers[0]
				var herr error
				n.Locked(func() { herr = chost.Setup(neut) })
				if herr != nil {
					return fmt.Errorf("setup: %w", herr)
				}
				if err := cmux.WaitConduit(neut, n.Now().Add(5*time.Second)); err != nil {
					return err
				}
				n.Locked(func() { herr = chost.Connect(neut, rec.Addr, rec.PublicKey) })
				if herr != nil {
					return fmt.Errorf("connect: %w", herr)
				}
				conn, err := cmux.Dial(rec.Addr)
				if err != nil {
					return err
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				for r := 0; r < realRequests; r++ {
					t0 := n.Now()
					status, body, err := httpGet(conn, br, fmt.Sprintf("http://%s/doc/%d", rec.Addr, r), false)
					if err != nil {
						return fmt.Errorf("request %d: %w", r, err)
					}
					want := []byte(fmt.Sprintf("served /doc/%d", r))
					if status != http.StatusOK || !bytes.Contains(body, want) {
						return fmt.Errorf("request %d: status %d, body %q...", r, status, body[:min(len(body), 40)])
					}
					rtts[i] += n.Now().Sub(t0)
					oks[i]++
				}
				return nil
			}()
		})
	}
	if err := n.Run(); err != nil {
		return nil, fmt.Errorf("http phase: %w", err)
	}
	for _, srv := range servers {
		srv.Close()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("http phase: client %d: %w", i, err)
		}
	}

	res := &realHTTPResult{Want: realClients * realRequests}
	var total time.Duration
	for i := 0; i < realClients; i++ {
		res.OK += oks[i]
		total += rtts[i]
	}
	if res.OK > 0 {
		res.MeanRTT = total / time.Duration(res.OK)
	}
	// Harvest the transit tap: a neutralized client's flow is the
	// (outside addr, anycast) shim pair in both directions.
	for i := 0; i < realClients; i++ {
		key, err := env.flowKey(f.OutsideAddr(i), f.HostAddr(i), ModeEncrypted)
		if err != nil {
			return nil, err
		}
		if class, ok := tab.ClassOf(key); ok {
			res.Flows++
			res.Hist[class]++
		}
	}
	return res, nil
}

// httpGet speaks one GET over an established stream with net/http's own
// codec and returns the status and the whole body; last closes the
// stream after the response.
func httpGet(conn io.Writer, br *bufio.Reader, url string, last bool) (int, []byte, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Close = last
	if err := req.Write(conn); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return 0, nil, fmt.Errorf("response: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("body: %w", err)
	}
	return resp.StatusCode, body, nil
}

// runRealAuditCell measures one audit cell over genuine HTTP traffic: a
// plain (non-neutralized) stream path from two outside roles — suspect
// and control — to a customer http.Server, with per-trial request
// latencies standing in for probe delay samples. When
// throttle is set, transit adds a constant 20ms to every packet from or
// to the suspect client (constant, so FIFO ordering is preserved).
func runRealAuditCell(seed int64, throttle bool) (audit.Verdict, RealTraceCheck, error) {
	var tc RealTraceCheck
	// Rate-limited links make serialization delay depend on body size,
	// which varies per trial — the within-role variance the
	// Mann-Whitney test needs.
	link := netem.LinkConfig{Delay: time.Millisecond, RateBps: 50_000_000, QueueLen: 4096}
	env, err := newFanoutEnv(seed, netem.FanoutSpec{
		Hosts: 1, Outside: 2,
		HostLink: link, EdgeLink: link, TransitLink: link, OutsideLink: link,
	}, false)
	if err != nil {
		return audit.Verdict{}, tc, err
	}
	f := env.Fan
	// Trace the cell wholesale: every emitted event recorded, ring big
	// enough that nothing is evicted, so every journey is complete and
	// the attribution invariant can be enforced with no tolerance.
	fr := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 1, RingSize: 1 << 16})
	env.Sim.AttachFlightRecorder(fr)
	suspect := f.OutsideAddr(int(audit.RoleSuspect))
	if throttle {
		f.Transit.AddTransitHook(func(_ time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
			src, dst, err := wire.IPv4Addrs(pkt)
			if err == nil && (src == suspect || dst == suspect) {
				return netem.Verdict{Delay: 20 * time.Millisecond, Cause: netem.CauseRule}
			}
			return netem.Deliver
		})
	}

	n := simnet.New(env.Sim)
	ln, err := n.ListenStream(f.Hosts[0], 80)
	if err != nil {
		return audit.Verdict{}, tc, err
	}
	srv := &http.Server{ErrorLog: quietHTTPLog, Handler: http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			sz, _ := strconv.Atoi(r.URL.Query().Get("n"))
			if sz <= 0 {
				sz = 1
			}
			w.Write(bytes.Repeat([]byte("x"), sz))
		})}
	go srv.Serve(ln)
	defer srv.Close()

	rep := audit.Report{Strategy: audit.StrategyInterleaved, Trials: make([]audit.Trial, realTrials)}
	target := netip.AddrPortFrom(f.HostAddr(0), 80)
	var roleErr [audit.NumRoles]error
	for role := 0; role < int(audit.NumRoles); role++ {
		role := role
		node := f.Outside[role]
		n.Go(func() {
			roleErr[role] = func() error {
				for t := 0; t < realTrials; t++ {
					// Interleave roles within each window; windows are far
					// enough apart that trials never overlap.
					at := benchStart.Add(time.Duration(t)*250*time.Millisecond +
						time.Duration(role)*125*time.Millisecond)
					if d := at.Sub(n.Now()); d > 0 {
						n.Sleep(d)
					}
					size := 2000 + 137*t
					conn, err := n.DialStream(node, target)
					if err != nil {
						return err
					}
					t0 := n.Now()
					// A failed exchange delivered nothing: that is the sample.
					_, body, _ := httpGet(conn, bufio.NewReader(conn), fmt.Sprintf("http://%s/?n=%d", f.HostAddr(0), size), true)
					got := len(body)
					lat := n.Now().Sub(t0)
					conn.Close()
					tr := &rep.Trials[t]
					tr.Sent[role] += uint64(size)
					tr.Delivered[role] += uint64(got)
					tr.DelaySum[role] += lat.Nanoseconds()
					tr.DelayPkts[role]++
				}
				return nil
			}()
		})
	}
	if err := n.Run(); err != nil {
		return audit.Verdict{}, tc, fmt.Errorf("audit cell: %w", err)
	}
	srv.Close()
	for role, err := range roleErr {
		if err != nil {
			return audit.Verdict{}, tc, fmt.Errorf("audit cell: role %d: %w", role, err)
		}
	}
	tc, err = verifyRealTrace(fr)
	if err != nil {
		return audit.Verdict{}, tc, fmt.Errorf("audit cell: %w", err)
	}
	return audit.Decide(&rep), tc, nil
}

// verifyRealTrace enforces the span contract over a fully-traced cell:
// no ring eviction, attribution components summing exactly to
// end-to-end virtual delay on every complete journey, and every
// throttled complete journey's rule-attributed policy delay equal to
// the 20ms the hook injected (one transit crossing per journey).
// Journeys still in flight when the protocol goroutines finished (the
// sim stops with them, not when the event heap drains) are legitimately
// incomplete and skipped.
func verifyRealTrace(fr *obs.FlightRecorder) (RealTraceCheck, error) {
	var tc RealTraceCheck
	if ev := fr.Evicted(); ev != 0 {
		return tc, fmt.Errorf("flight ring evicted %d events; tracing was not lossless", ev)
	}
	err := checkAttribution(fr.Events(), nil, 0, func(flow uint64, j *obs.Journey) error {
		tc.Journeys++
		var pol int64
		for h := range j.Hops {
			if j.Hops[h].Cause == uint8(netem.CauseRule) && j.Hops[h].PolicyNanos > 0 {
				pol += j.Hops[h].PolicyNanos
			}
		}
		if pol > 0 {
			if pol != int64(20*time.Millisecond) {
				return fmt.Errorf("throttled journey %d of flow %016x attributed %dns of policy delay, want exactly 20ms",
					j.ID, flow, pol)
			}
			tc.Throttled++
			tc.ThrottleDelay += time.Duration(pol)
		}
		return nil
	})
	return tc, err
}

// RunRealProto runs all three E10 phases and enforces the self-checks:
// the run fails loudly when real protocols did not actually cross the
// sim the way the claims require.
func RunRealProto(cfg RealProtoConfig) (*RealProtoStats, error) {
	st := &RealProtoStats{Cfg: cfg}

	dns, err := runRealDNS(cfg.Seed)
	if err != nil {
		return nil, err
	}
	st.DNS = *dns

	httpRes, err := runRealHTTP(cfg.Seed)
	if err != nil {
		return nil, err
	}
	st.HTTP = *httpRes

	if st.Neutral, st.NeutralTrace, err = runRealAuditCell(cfg.Seed+3, false); err != nil {
		return nil, err
	}
	if st.Throttled, st.ThrottledTrace, err = runRealAuditCell(cfg.Seed+4, true); err != nil {
		return nil, err
	}
	return st, verifyRealProto(st)
}

// verifyRealProto is E10's self-check, the same contract E6/E7/E8 use.
func verifyRealProto(st *RealProtoStats) error {
	// DNS path: two 1ms hops each way, one datagram per direction.
	const dnsRTT = 4 * time.Millisecond
	return firstFailed("realproto", []check{
		{st.DNS.PlainRTT == dnsRTT,
			fmt.Sprintf("plain dns rtt = %v, want exactly %v (virtual time)", st.DNS.PlainRTT, dnsRTT)},
		{st.DNS.EncRTT == dnsRTT,
			fmt.Sprintf("encrypted dns rtt = %v, want exactly %v", st.DNS.EncRTT, dnsRTT)},
		{st.DNS.NXDomainOK, "nxdomain did not surface ErrNoSuchName over the conn client"},
		{st.DNS.TimeoutOK, "virtual read deadline did not fire on a dead resolver port"},
		{st.DNS.Queries == 3 && st.DNS.Encrypted == 1,
			fmt.Sprintf("resolver counters = %d/%d, want 3 queries, 1 encrypted", st.DNS.Queries, st.DNS.Encrypted)},
		{st.HTTP.OK == st.HTTP.Want,
			fmt.Sprintf("http requests completed = %d/%d", st.HTTP.OK, st.HTTP.Want)},
		{st.HTTP.Flows == realClients,
			fmt.Sprintf("transit dpi tap observed %d/%d client flows", st.HTTP.Flows, realClients)},
		{st.HTTP.Hist[dpi.ClassUnknown] == 0,
			fmt.Sprintf("%d flows never classified (too few packets reached transit?)", st.HTTP.Hist[dpi.ClassUnknown])},
		{!st.Neutral.Discriminated,
			fmt.Sprintf("neutral path ruled discriminatory (gap %.2f, delay gap %.2f)", st.Neutral.Gap, st.Neutral.DelayGap)},
		{st.Throttled.Discriminated && st.Throttled.DelayHit,
			fmt.Sprintf("20ms targeted throttle not detected (delay MW p=%.4f, delay gap %.2f)",
				st.Throttled.DelayMW.P, st.Throttled.DelayGap)},
		{st.NeutralTrace.Journeys > 0 && st.NeutralTrace.Throttled == 0,
			fmt.Sprintf("neutral cell trace: %d journeys, %d carrying policy delay (want >0, 0)",
				st.NeutralTrace.Journeys, st.NeutralTrace.Throttled)},
		{st.ThrottledTrace.Throttled > 0,
			fmt.Sprintf("throttled cell trace: no journey carries rule-attributed policy delay (%d journeys)",
				st.ThrottledTrace.Journeys)},
		{st.ThrottledTrace.ThrottleDelay == time.Duration(st.ThrottledTrace.Throttled)*20*time.Millisecond,
			fmt.Sprintf("throttled cell trace: attributed %v over %d throttled journeys, want exactly 20ms each",
				st.ThrottledTrace.ThrottleDelay, st.ThrottledTrace.Throttled)},
	})
}

// classHistString renders the DPI class histogram deterministically.
func classHistString(hist *[dpi.NumClasses + 1]int) string {
	var b strings.Builder
	for c := 0; c < len(hist); c++ {
		if hist[c] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", dpi.Class(c), hist[c])
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

var realProtoTitle = "Real protocol stacks over the sim (net/http + DNS vs DPI and audit)"

// RunE10 is the registered real-protocol experiment.
func RunE10() (*Result, error) { return rows(RunRealProto(RealProtoConfig{Seed: 10})) }

// Result renders the run as the E10 rows; every figure is virtual-time
// or a count, so the rows replay byte-identically per seed.
func (st *RealProtoStats) Result() *Result {
	return &Result{ID: "E10", Title: realProtoTitle, Rows: []Row{
		{Metric: "dns lookup rtt over simnet (plain / encrypted)", Paper: "-",
			Measured: fmt.Sprintf("%v / %v", st.DNS.PlainRTT, st.DNS.EncRTT),
			Note:     "blocking ConnClient, exact virtual latency"},
		{Metric: "dns nxdomain + virtual read deadline", Paper: "-",
			Measured: fmt.Sprintf("%v / %v", st.DNS.NXDomainOK, st.DNS.TimeoutOK),
			Note:     "error paths of the real codec"},
		{Metric: "net/http requests through the neutralizer", Paper: "apps work unchanged (§3)",
			Measured: fmt.Sprintf("%d/%d ok", st.HTTP.OK, st.HTTP.Want),
			Note:     fmt.Sprintf("mean rtt %v; keep-alive over shim conduits", st.HTTP.MeanRTT.Round(time.Microsecond))},
		{Metric: "E7-trained dpi on real neutralized http", Paper: "sees only anycast flows",
			Measured: classHistString(&st.HTTP.Hist),
			Note:     fmt.Sprintf("%d flows at the transit tap", st.HTTP.Flows)},
		{Metric: "audit verdict: clean path", Paper: "no false positive",
			Measured: fmt.Sprintf("discriminated=%v", st.Neutral.Discriminated),
			Note:     fmt.Sprintf("%d trials of real http latency", st.Neutral.Trials)},
		{Metric: "audit verdict: 20ms targeted throttle", Paper: "detected",
			Measured: fmt.Sprintf("discriminated=%v (delay gap %.1fx)", st.Throttled.Discriminated, st.Throttled.DelayGap),
			Note:     fmt.Sprintf("delay MW p=%.2g", st.Throttled.DelayMW.P)},
		{Metric: "trace attribution invariant", Paper: "-",
			Measured: fmt.Sprintf("%d journeys exact", st.NeutralTrace.Journeys+st.ThrottledTrace.Journeys),
			Note: fmt.Sprintf("%d throttled journeys each attributed exactly 20ms of rule-caused delay",
				st.ThrottledTrace.Throttled)},
	}}
}
