package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	testSimFlags = map[string]bool{"scenario": true, "runs": true, "workers": true, "lambda": true, "worker": false}
	testExpFlags = map[string]bool{"scale": true, "runs": true, "all": false}
	testScens    = map[string]bool{"quickstart": true, "stake-churn": true}
	testExps     = map[string]bool{"fig1": true, "stakes": true}
)

func check(t *testing.T, text string) []string {
	t.Helper()
	invs := invocations("```sh\n" + text + "\n```\n")
	if len(invs) != 1 {
		t.Fatalf("invocations(%q) = %v, want 1", text, invs)
	}
	return checkInvocation(invs[0], testSimFlags, testExpFlags, testScens, testExps)
}

func TestCleanInvocationsPass(t *testing.T) {
	for _, line := range []string{
		"go run ./cmd/replend-sim -scenario stake-churn -runs 10 -workers 4",
		"replend-sim -scenario my-workload.json -runs 3",
		"replend-sim scenarios describe quickstart",
		"replend-sim scenarios dump <name>",
		"go run ./cmd/replend-experiments -scale 0.1 fig1 stakes",
		"replend-experiments -all -scale 1   # a trailing comment naming -bogus is ignored",
		"replend-sim -worker",
	} {
		if p := check(t, line); len(p) != 0 {
			t.Errorf("%q flagged: %v", line, p)
		}
	}
}

func TestStaleReferencesCaught(t *testing.T) {
	for line, want := range map[string]string{
		"replend-sim -scenaro stake-churn":     "unknown replend-sim flag -scenaro",
		"replend-sim -scenario stake-churns":   `unknown scenario "stake-churns"`,
		"replend-sim -scenario=nope":           `unknown scenario "nope"`,
		"replend-sim scenarios describe ghost": `unknown scenario "ghost"`,
		"replend-experiments -scale 0.1 fig99": `unknown experiment "fig99"`,
		"replend-experiments -turbo fig1":      "unknown replend-experiments flag -turbo",
	} {
		p := check(t, line)
		if len(p) == 0 {
			t.Errorf("%q not flagged, want %q", line, want)
			continue
		}
		if !strings.Contains(strings.Join(p, "; "), want) {
			t.Errorf("%q flagged as %v, want %q", line, p, want)
		}
	}
}

func TestProseOutsideFencesIgnored(t *testing.T) {
	doc := "The replend-sim -bogus flag is discussed in prose only.\n\n```\nreplend-sim -scenario quickstart\n```\n"
	invs := invocations(doc)
	if len(invs) != 1 || invs[0].text != "replend-sim -scenario quickstart" {
		t.Fatalf("invocations = %+v, want only the fenced command", invs)
	}
}

func TestGoRunPathsChecked(t *testing.T) {
	root := t.TempDir()
	for file, src := range map[string]string{
		"cmd/tool/x.go":      "package main\n\nfunc main() {}\n",
		"lib/x.go":           "package lib\n",
		"testonly/x_test.go": "package main\n",
	} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, file)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, file), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, line := range []string{
		"go run ./cmd/tool -flag 1",
		"go run -race ./cmd/tool",
		"go run ./cmd/tool ./... && go run ./cmd/tool",
		"go run ./...",
		"go run ./<dir>",
		"go vet ./missing",
	} {
		if p := checkGoRun(root, line); len(p) != 0 {
			t.Errorf("%q flagged: %v", line, p)
		}
	}
	for _, line := range []string{
		"go run ./examples/quickstart",
		"go run ./lib",
		"go run ./testonly",
		"go run ./cmd/tool && go run ./cmd/gone",
	} {
		if p := checkGoRun(root, line); len(p) != 1 || !strings.Contains(p[0], "no package main") {
			t.Errorf("%q: problems %v, want one missing-main report", line, p)
		}
	}
}
