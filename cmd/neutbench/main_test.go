package main

import (
	"bytes"
	"strings"
	"testing"

	"netneutral/internal/eval"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListPrintsRegisteredIDs(t *testing.T) {
	code, out, _ := runCmd("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E13 F1 F2 A1 A2 A3 A4 A5 A6 A7 A8"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("-list ids = %s\nwant        %s", got, want)
	}
}

// TestExpPrintsEvalRendering: A4–A7 are read through this command now
// that the examples retelling them are gone, so `-exp A5` must print
// exactly eval.RunA5's rendering — and, the story being deterministic,
// the same bytes on a second run.
func TestExpPrintsEvalRendering(t *testing.T) {
	res, err := eval.RunA5()
	if err != nil {
		t.Fatal(err)
	}
	want := res.String() + "\n"
	for i := 0; i < 2; i++ {
		code, out, errs := runCmd("-exp", "A5")
		if code != 0 || errs != "" {
			t.Fatalf("run %d: exit %d, stderr %q", i, code, errs)
		}
		if out != want {
			t.Errorf("run %d: stdout differs from eval.RunA5's rendering:\n%s\nwant:\n%s", i, out, want)
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	code, out, errs := runCmd("-exp", "Z9")
	if code != 2 || out != "" {
		t.Errorf("exit %d, stdout %q; want 2 and nothing", code, out)
	}
	if !strings.Contains(errs, `unknown experiment "Z9"`) || !strings.Contains(errs, "try -list") {
		t.Errorf("stderr %q lacks the -list hint", errs)
	}
}
