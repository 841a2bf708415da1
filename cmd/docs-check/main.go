// Command docs-check keeps the documentation honest: every fenced code
// block in the given markdown files that invokes replend-sim or
// replend-experiments is cross-checked against the real binaries — CLI
// flags must exist in the binary's flag set, scenario names passed to
// -scenario / `scenarios describe|dump` must be registered built-ins,
// and experiment names passed to replend-experiments must be runnable.
// Every fenced `go run ./<dir>` must name a directory, relative to the
// working directory (the repository root in CI), holding a package main.
// CI runs it on every push so docs cannot silently rot when a flag is
// renamed, a built-in added or a program deleted.
//
// Usage:
//
//	docs-check -sim <replend-sim binary> -experiments <replend-experiments binary> file.md ...
//
// Placeholders are skipped: tokens containing <…>, $…, `…`, an ellipsis,
// or a .json path are treated as user-supplied, not as names to verify.
package main

import (
	"flag"
	"fmt"
	"go/build"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "docs-check:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("docs-check", flag.ContinueOnError)
	simBin := fs.String("sim", "", "path to the built replend-sim binary")
	expBin := fs.String("experiments", "", "path to the built replend-experiments binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if *simBin == "" || *expBin == "" || len(files) == 0 {
		return fmt.Errorf("usage: docs-check -sim <bin> -experiments <bin> file.md ...")
	}

	simFlags, err := flagsOf(*simBin)
	if err != nil {
		return err
	}
	expFlags, err := flagsOf(*expBin)
	if err != nil {
		return err
	}
	scenarios, err := firstColumn(*simBin, "scenarios", "list")
	if err != nil {
		return err
	}
	experiments, err := firstColumn(*expBin, "-list")
	if err != nil {
		return err
	}

	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for _, inv := range invocations(string(data)) {
			for _, p := range checkInvocation(inv, simFlags, expFlags, scenarios, experiments) {
				problems = append(problems, fmt.Sprintf("%s:%d: %s (in: %s)", file, inv.line, p, inv.text))
			}
		}
		for _, fl := range fencedLines(string(data)) {
			for _, p := range checkGoRun(".", fl.text) {
				problems = append(problems, fmt.Sprintf("%s:%d: %s (in: %s)", file, fl.line, p, fl.text))
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		return fmt.Errorf("%d stale documentation reference(s)", len(problems))
	}
	return nil
}

// flagsOf parses `<bin> -h` usage output into the set of defined flags
// and whether each takes a value (Go's flag package prints "  -name type"
// for valued flags and bare "  -name" for booleans).
func flagsOf(bin string) (map[string]bool, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero; the usage text is what matters
	flags := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		rest, ok := strings.CutPrefix(line, "  -")
		if !ok {
			continue
		}
		name, typ, valued := strings.Cut(rest, " ")
		flags[name] = valued && typ != ""
	}
	if len(flags) == 0 {
		return nil, fmt.Errorf("%s -h printed no flags; is it the right binary?", bin)
	}
	return flags, nil
}

// firstColumn runs the binary with args and collects the first
// whitespace-separated field of every output line — the name column of
// `scenarios list` and of `-list`.
func firstColumn(bin string, args ...string) (map[string]bool, error) {
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", bin, strings.Join(args, " "), err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			names[f[0]] = true
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s %s listed nothing", bin, strings.Join(args, " "))
	}
	return names, nil
}

// invocation is one documented command line naming a checked binary.
type invocation struct {
	line int
	bin  string // "replend-sim" or "replend-experiments"
	text string
	toks []string
}

// fencedLines extracts the command lines of fenced code blocks, with no
// binary resolved yet. Only lines inside ``` fences are considered (prose
// mentioning a flag in passing is not a command), and everything after a
// shell comment is dropped.
func fencedLines(doc string) []invocation {
	var out []invocation
	inFence := false
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			continue
		}
		if j := strings.Index(trimmed, "#"); j >= 0 {
			trimmed = trimmed[:j]
		}
		out = append(out, invocation{line: i + 1, text: strings.TrimSpace(trimmed)})
	}
	return out
}

// invocations extracts the fenced command lines naming a checked binary.
func invocations(doc string) []invocation {
	var out []invocation
	for _, inv := range fencedLines(doc) {
		for _, bin := range []string{"replend-sim", "replend-experiments"} {
			j := strings.Index(inv.text, bin)
			if j < 0 {
				continue
			}
			rest := inv.text[j+len(bin):]
			if !strings.HasPrefix(rest, " ") && rest != "" {
				continue // replend-sim.something — not an invocation
			}
			inv.bin, inv.toks = bin, strings.Fields(rest)
			out = append(out, inv)
			break
		}
	}
	return out
}

// goRunDir matches the package directory of a `go run ./<dir>` command,
// after any build flags; ./... patterns and <placeholders> do not match.
var goRunDir = regexp.MustCompile(`\bgo run (?:-\S+ )*\./([\w/-]+)(?:\s|$)`)

// checkGoRun reports each `go run ./<dir>` on a fenced line whose
// directory, resolved against root, holds no package main.
func checkGoRun(root, line string) []string {
	var problems []string
	for _, m := range goRunDir.FindAllStringSubmatch(line, -1) {
		if !holdsMain(filepath.Join(root, m[1])) {
			problems = append(problems, fmt.Sprintf("go run ./%s: no package main in that directory", m[1]))
		}
	}
	return problems
}

// holdsMain reports whether dir's non-test Go files form package main.
func holdsMain(dir string) bool {
	pkg, err := build.ImportDir(dir, 0)
	return err == nil && pkg.Name == "main" && len(pkg.GoFiles) > 0
}

// placeholder reports a token that stands for user input rather than a
// literal name.
func placeholder(tok string) bool {
	return tok == "\\" || // shell line continuation
		strings.ContainsAny(tok, "<>$`…[]|&;") || strings.Contains(tok, "...") ||
		strings.Contains(tok, ".json") || strings.Contains(tok, "/")
}

// checkInvocation verifies one documented command line.
func checkInvocation(inv invocation, simFlags, expFlags, scenarios, experiments map[string]bool) []string {
	flags := simFlags
	if inv.bin == "replend-experiments" {
		flags = expFlags
	}
	var problems []string
	toks := inv.toks
	// The scenarios subcommand: `scenarios describe <name>` etc.
	if inv.bin == "replend-sim" && len(toks) > 0 && toks[0] == "scenarios" {
		if len(toks) >= 3 && (toks[1] == "describe" || toks[1] == "dump") && !placeholder(toks[2]) && !scenarios[toks[2]] {
			problems = append(problems, fmt.Sprintf("unknown scenario %q", toks[2]))
		}
		return problems
	}
	for i := 0; i < len(toks); i++ {
		tok := toks[i]
		switch {
		case strings.HasPrefix(tok, "-"):
			name, _, hasValue := strings.Cut(tok[1:], "=")
			valued, known := flags[name]
			if !known {
				problems = append(problems, fmt.Sprintf("unknown %s flag -%s", inv.bin, name))
				continue
			}
			if name == "scenario" {
				arg := ""
				if hasValue {
					_, arg, _ = strings.Cut(tok[1:], "=")
				} else if i+1 < len(toks) {
					arg = toks[i+1]
				}
				if arg != "" && !placeholder(arg) && !scenarios[arg] {
					problems = append(problems, fmt.Sprintf("unknown scenario %q", arg))
				}
			}
			if valued && !hasValue {
				i++ // skip the flag's value token
			}
		case inv.bin == "replend-experiments" && !placeholder(tok):
			// Bare tokens on a replend-experiments line are experiment
			// names.
			if !experiments[tok] {
				problems = append(problems, fmt.Sprintf("unknown experiment %q", tok))
			}
		}
	}
	return problems
}
