package obs

import (
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_h_total", "help", func() uint64 { return 11 })
	fr := NewFlightRecorder(FlightConfig{SampleEvery: 1, RingSize: 4})
	st := fr.Stripe(0)
	st.Sample()
	st.Record(TraceRec{TimeNanos: 5, Kind: 3})
	mux := NewHandler(HandlerConfig{Source: r, Flight: fr})

	get := func(path string) (int, string, string) {
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, req)
		body, _ := io.ReadAll(rw.Result().Body)
		return rw.Code, rw.Header().Get("Content-Type"), string(body)
	}

	code, ctype, body := get("/metrics")
	if code != 200 || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics: code=%d type=%q", code, ctype)
	}
	if !strings.Contains(body, "test_h_total 11") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	code, ctype, body = get("/metrics.json")
	if code != 200 || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics.json: code=%d type=%q", code, ctype)
	}
	if !strings.Contains(body, `"test_h_total"`) {
		t.Fatalf("/metrics.json missing metric:\n%s", body)
	}

	code, ctype, body = get("/trace.json")
	if code != 200 || !strings.Contains(ctype, "application/json") || ValidateChromeTrace([]byte(body)) != nil {
		t.Fatalf("/trace.json: code=%d type=%q body=%s", code, ctype, body)
	}
	if code, _, _ = get("/trace"); code != 404 {
		t.Fatalf("/trace: code=%d, want 404 (/trace.json is the one trace export)", code)
	}

	// The process's argv may hold a secret (neutralizerd's -root), so
	// the pprof index must not serve it under any name.
	code, _, body = get("/debug/pprof/cmdline")
	if code != 404 || strings.Contains(body, os.Args[0]) {
		t.Fatalf("/debug/pprof/cmdline: code=%d body=%q, want 404 without argv", code, body)
	}
}
