// Command deadcode lists the functions declared under internal/ that no
// binary of this repository contains, and fails on any that the allowlist
// does not name.
//
// It builds every main package under cmd/ and examples/, plus benchmark/
// from its own module, with inlining off (an inlined function leaves no
// symbol and would read as unreached), reads their symbols with
// `go tool nm`, and compares them with every non-test func declaration
// under internal/. A method with an empty body is a sealed-interface
// marker and is skipped.
//
// Each allowlist line (scripts/deadcode/allow.txt) is `pkg.Func pkg.TestName`
// or `pkg.Type.Method pkg.TestName`, naming a test that needs the function
// and the package under internal/ that holds it. An entry fails the check
// when its function is reached, is no longer declared, names a test its
// package does not list, or is missing from that package's test binary
// (built, like the others, with inlining off): the package's tests no
// longer need it.
//
// Run from the repository root:
//
//	go run ./scripts/deadcode
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	modulePath = "adaptivetoken"
	allowFile  = "scripts/deadcode/allow.txt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	decls, err := declared("internal")
	if err != nil {
		return err
	}
	f, err := os.Open(allowFile)
	if err != nil {
		return err
	}
	allow, err := parseAllow(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", allowFile, err)
	}
	reached, err := reachedSymbols()
	if err != nil {
		return err
	}
	suites, err := testSuites(allow)
	if err != nil {
		return err
	}
	r := check(decls, reached, allow, suites)
	for _, e := range allow {
		if decls[e.fn] != "" && !reached[e.fn] {
			fmt.Printf("allowed: %s (%s)\n", e.fn, e.test)
		}
	}
	for _, fn := range r.unallowed {
		fmt.Printf("%s: %s is in no binary\n", decls[fn], fn)
	}
	for _, p := range r.stale {
		fmt.Printf("%s: %s\n", allowFile, p)
	}
	fmt.Printf("deadcode: %d declared functions in no binary, %d allowlisted\n",
		len(r.unreached), len(allow))
	if len(r.unallowed) > 0 || len(r.stale) > 0 {
		return fmt.Errorf("%d unreached functions not allowlisted, %d bad allowlist entries",
			len(r.unallowed), len(r.stale))
	}
	return nil
}

// declared maps every non-test function and method declared under root to
// its position, keyed `pkg.Func` or `pkg.Type.Method`, with pkg the
// directory relative to root. Methods with an empty body and init
// functions are left out.
func declared(root string) (map[string]string, error) {
	fset := token.NewFileSet()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			key := filepath.ToSlash(pkg) + "."
			if fd.Recv != nil {
				if len(fd.Body.List) == 0 {
					continue
				}
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			key += fd.Name.Name
			out[key] = fset.Position(fd.Pos()).String()
		}
		return nil
	})
	return out, err
}

// recvName is the bare type name of a receiver: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprint(e)
		}
	}
}

// parseNM adds to reached the key of every function symbol under
// modulePath/internal/ in `go tool nm` output.
func parseNM(r io.Reader, reached map[string]bool) error {
	prefix := modulePath + "/internal/"
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		// "  addr T name": the name is everything after the type letter and
		// may hold spaces (generic shapes such as go.shape.struct { ... }).
		fields := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
		if len(fields) < 3 || !strings.HasPrefix(fields[2], prefix) {
			continue
		}
		if key, ok := symbolKey(strings.TrimPrefix(fields[2], prefix)); ok {
			reached[key] = true
		}
	}
	return sc.Err()
}

// symbolKey turns a linker symbol relative to internal/ into a declaration
// key: type arguments are dropped, so an instantiation matches its generic
// declaration, and (*T).M and T.M both become T.M, so a value method seen
// only through its pointer wrapper counts as reached.
func symbolKey(sym string) (string, bool) {
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
	s := strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	pkg, name := s[:slash+1+dot], s[slash+2+dot:]
	name = strings.Replace(strings.Replace(name, "(*", "", 1), ")", "", 1)
	if name == "" || strings.ContainsAny(name, " ()") {
		return "", false
	}
	return pkg + "." + name, true
}

type allowEntry struct {
	fn, test string
	line     int
}

// parseAllow reads `pkg.Func pkg.TestName` lines; blank lines and #
// comments are skipped.
func parseAllow(r io.Reader) ([]allowEntry, error) {
	var out []allowEntry
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || !strings.Contains(f[1], ".") {
			return nil, fmt.Errorf("line %d: want `pkg.Func pkg.TestName`, got %q", n, line)
		}
		out = append(out, allowEntry{fn: f[0], test: f[1], line: n})
	}
	return out, sc.Err()
}

type report struct {
	unreached []string // every declared function no binary contains
	unallowed []string // the unreached ones the allowlist does not name
	stale     []string // allowlist entries that fail the check
}

// suite is what one package's test binary holds: the names its -test.list
// prints and the internal/ functions in its symbol table.
type suite struct {
	tests, reached map[string]bool
}

// testPkg splits an entry's `pkg.TestName` at its last dot.
func (e allowEntry) testPkg() (pkg, name string) {
	i := strings.LastIndex(e.test, ".")
	return e.test[:i], e.test[i+1:]
}

func check(decls map[string]string, reached map[string]bool, allow []allowEntry, suites map[string]suite) report {
	var r report
	allowed := map[string]bool{}
	for _, e := range allow {
		allowed[e.fn] = true
		pkg, name := e.testPkg()
		s := suites[pkg]
		switch {
		case decls[e.fn] == "":
			r.stale = append(r.stale, fmt.Sprintf("line %d: %s is no longer declared", e.line, e.fn))
		case reached[e.fn]:
			r.stale = append(r.stale, fmt.Sprintf("line %d: %s is reached; drop the entry", e.line, e.fn))
		case !s.tests[name]:
			r.stale = append(r.stale, fmt.Sprintf("line %d: test %s not found by go test -list", e.line, e.test))
		case !s.reached[e.fn]:
			r.stale = append(r.stale, fmt.Sprintf("line %d: %s tests no longer reach %s", e.line, pkg, e.fn))
		}
	}
	for fn := range decls {
		if reached[fn] {
			continue
		}
		r.unreached = append(r.unreached, fn)
		if !allowed[fn] {
			r.unallowed = append(r.unallowed, fn)
		}
	}
	sort.Strings(r.unreached)
	sort.Strings(r.unallowed)
	return r
}

// reachedSymbols builds every binary with inlining off into a temporary
// directory and collects the internal/ functions their symbol tables hold.
func reachedSymbols() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, err := goCmd("", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/..."); err != nil {
		return nil, err
	}
	if _, err := goCmd("benchmark", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "benchmark"), "."); err != nil {
		return nil, err
	}
	bins, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	reached := map[string]bool{}
	for _, bin := range bins {
		out, err := goCmd("", "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		if err := parseNM(bytes.NewReader(out), reached); err != nil {
			return nil, err
		}
	}
	return reached, nil
}

// testSuites builds, with inlining off, the test binary of every package
// the allowlist names a test in, and reads each one's test list and
// symbols. A package without test files gets an empty suite.
func testSuites(allow []allowEntry) (map[string]suite, error) {
	dir, err := os.MkdirTemp("", "deadcode-test")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	suites := map[string]suite{}
	for _, e := range allow {
		pkg, _ := e.testPkg()
		if _, ok := suites[pkg]; ok {
			continue
		}
		s := suite{tests: map[string]bool{}, reached: map[string]bool{}}
		suites[pkg] = s
		bin := filepath.Join(dir, strings.ReplaceAll(pkg, "/", "_")+".test")
		if _, err := goCmd("", "test", "-c", "-gcflags=all=-l", "-o", bin, "./internal/"+pkg); err != nil {
			return nil, err
		}
		if _, err := os.Stat(bin); err != nil {
			continue
		}
		out, err := exec.Command(bin, "-test.list", ".").Output()
		if err != nil {
			return nil, fmt.Errorf("%s -test.list: %v", pkg, err)
		}
		for _, name := range strings.Fields(string(out)) {
			s.tests[name] = true
		}
		if out, err = goCmd("", "tool", "nm", bin); err != nil {
			return nil, err
		}
		if err := parseNM(bytes.NewReader(out), s.reached); err != nil {
			return nil, err
		}
	}
	return suites, nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
