package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_h_total", "help").Stripe(0).Add(11)
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

	code, ctype, body = get("/trace")
	if code != 200 || !strings.Contains(ctype, "application/x-ndjson") || !strings.Contains(body, `"ts":5`) {
		t.Fatalf("/trace: code=%d type=%q body=%s", code, ctype, body)
	}

	code, _, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}
