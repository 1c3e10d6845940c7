package cfaopc_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepList names the functions in non-test files that no binary under
// ./cmd or ./examples links and that stay anyway, each with its reason.
// DESIGN §7 carries the same list. Everything else a binary does not
// link is deleted, or moved into a _test.go file or internal/testkit.
var keepList = map[string]string{
	"cfaopc/internal/fft.Forward2D":                   "opcbench times the forward 2-D transform on its own (fft.fft2d_us.*)",
	"cfaopc/internal/core.Render":                     "opcbench times CircleOpt's render on its own (core.render_us.*)",
	"cfaopc/internal/core.Backward":                   "opcbench times CircleOpt's backward pass on its own (core.backward_us.*)",
	"cfaopc/internal/geom.Skeleton":                   "opcbench times the thinning on its own (geom.skeleton_ms.*)",
	"cfaopc/internal/layout.(*WindowIndex).Window":    "opcbench times one window's rasterization (layout.window_us.*)",
	"cfaopc/internal/layout.(*WindowIndex).Occupancy": "opcbench picks its probes' busiest window with it",
	"cfaopc/internal/checkpoint.Open":                 "opcbench times a journal's open and replay (checkpoint.open_replay_ms.*)",
}

// TestEveryFunctionIsLinked is the keep rule, the function-level form of
// TestEveryInternalPackageIsShipped: it builds every binary under ./cmd
// and ./examples with inlining off and the linker's dependency dump on,
// and fails, naming each one, on a function declared in a non-test file
// of the module (internal/testkit aside) that no binary links and the
// keep list does not name. The uninlined build of the whole tree takes
// tens of seconds the first time, so the test runs only when KEEPRULE is
// set, as in the keep-rule CI step.
func TestEveryFunctionIsLinked(t *testing.T) {
	if os.Getenv("KEEPRULE") == "" {
		t.Skip("KEEPRULE not set; run via the keep-rule CI step")
	}
	linked := linkedFuncs(t)
	var unlinked []string
	seen := map[string]bool{}
	for _, fn := range declaredFuncs(t) {
		seen[fn.sym] = true
		if linked[fn.sym] {
			continue
		}
		if _, ok := keepList[fn.sym]; ok {
			continue
		}
		unlinked = append(unlinked, fmt.Sprintf("%s (%s, %d lines)", fn.sym, fn.pos, fn.lines))
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("no binary links %s: delete it, move it into a _test.go file, or name it on the keep list", u)
	}
	for sym := range keepList {
		if !seen[sym] {
			t.Errorf("keep list names %s, which is not declared", sym)
		} else if linked[sym] {
			t.Errorf("keep list names %s, which a binary links", sym)
		}
	}
}

// linkedFuncs builds every binary in one go build and returns the
// symbols its linker dump names, with type arguments stripped and each
// binary's main package under its import path.
func linkedFuncs(t *testing.T) map[string]bool {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", t.TempDir()+string(filepath.Separator),
		"-gcflags=all=-l", "-ldflags=-dumpdep", "./cmd/...", "./examples/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%.2000s", err, out)
	}
	linked := map[string]bool{}
	main := "main"
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if pkg, ok := strings.CutPrefix(line, "# "); ok {
			main = pkg
			continue
		}
		for _, sym := range strings.Split(line, " -> ") {
			sym = stripTypeArgs(sym)
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = main + "." + rest
			}
			linked[sym] = true
		}
	}
	if len(linked) == 0 {
		t.Fatalf("the linker dumped no symbols:\n%.2000s", out)
	}
	return linked
}

// stripTypeArgs drops every bracketed part of a symbol, so that
// pkg.F[go.shape.int] and pkg.(*T[go.shape.string]).M read pkg.F and
// pkg.(*T).M.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type declaredFunc struct {
	sym   string // the linker's name: pkg.F, pkg.T.M or pkg.(*T).M
	pos   string // file:line of the declaration
	lines int    // declaration lines, signature to closing brace
}

// declaredFuncs parses the non-test files of every package of the module
// but internal/testkit's and returns each function and method they
// declare, init and main aside.
func declaredFuncs(t *testing.T) []declaredFunc {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	wd, _ := os.Getwd()
	var decls []declaredFunc
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || strings.HasPrefix(f[0], "cfaopc/internal/testkit/") {
			continue
		}
		for _, name := range f[2:] {
			path := filepath.Join(f[1], name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
					continue
				}
				rel, _ := filepath.Rel(wd, path)
				start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
				decls = append(decls, declaredFunc{
					sym:   f[0] + "." + recvName(fd) + fd.Name.Name,
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	return decls
}

// recvName returns "T." or "(*T)." for a method and "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}
