package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const fooSrc = `package foo

type T struct{ n int }

// M has a value receiver; the binary holds only its (*T).M wrapper.
func (t T) M() int { return t.n }

// isMarker is an empty-body sealed-interface marker.
func (T) isMarker() {}

func mapOrdered[K comparable](m map[K]int) []K { return nil }

// Planted is exported and called by nothing.
func Planted() int { return 1 }

func init() { _ = 0 }
`

// nmOut is synthetic go tool nm output: the pointer wrapper of a value
// method, a generic instantiation whose shape name holds spaces, a closure,
// and symbols outside internal/ that must be ignored.
const nmOut = `  4a1000 T adaptivetoken/internal/foo.(*T).M
  4a1100 T adaptivetoken/internal/foo.mapOrdered[go.shape.struct { Variant string; N int }]
  4a1200 T adaptivetoken/internal/foo.mapOrdered.func1
  4a1300 T adaptivetoken/cmd/tool.main
  4a1400 T runtime.main
         U adaptivetoken/internal/foo.undefinedRef
`

func fixture(t *testing.T) (map[string]string, map[string]bool) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "internal")
	if err := os.MkdirAll(filepath.Join(root, "foo"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"foo.go":      fooSrc,
		"foo_test.go": "package foo\n\nfunc helperOnlyInTests() {}\n",
	} {
		if err := os.WriteFile(filepath.Join(root, "foo", name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decls, err := declared(root)
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	if err := parseNM(strings.NewReader(nmOut), reached); err != nil {
		t.Fatal(err)
	}
	return decls, reached
}

func TestDeclaredSkipsMarkersInitAndTests(t *testing.T) {
	decls, _ := fixture(t)
	var got []string
	for k := range decls {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"foo.Planted", "foo.T.M", "foo.mapOrdered"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("declared = %v, want %v", got, want)
	}
}

func TestNMMatchesPointerWrapperAndGenericShapes(t *testing.T) {
	_, reached := fixture(t)
	for _, k := range []string{"foo.T.M", "foo.mapOrdered"} {
		if !reached[k] {
			t.Errorf("%s not reached; reached = %v", k, reached)
		}
	}
	for k := range reached {
		if strings.Contains(k, " ") || strings.HasPrefix(k, "cmd/") {
			t.Errorf("bad key %q", k)
		}
	}
}

func TestCheckReportsPlantedFunction(t *testing.T) {
	decls, reached := fixture(t)
	r := check(decls, reached, nil, nil)
	if want := []string{"foo.Planted"}; !reflect.DeepEqual(r.unallowed, want) || len(r.stale) != 0 {
		t.Fatalf("unallowed = %v, stale = %v; want %v and none", r.unallowed, r.stale, want)
	}
}

func TestCheckAllowlist(t *testing.T) {
	decls, reached := fixture(t)
	suites := map[string]suite{
		"foo": {tests: map[string]bool{"TestPlanted": true}, reached: map[string]bool{"foo.Planted": true}},
		"bar": {tests: map[string]bool{"TestBar": true}, reached: map[string]bool{}},
	}
	for _, tc := range []struct {
		name, allow string
		stale       string // substring of the one expected problem; "" for none
	}{
		{"allowed", "foo.Planted foo.TestPlanted", ""},
		{"reached entry", "foo.Planted foo.TestPlanted\nfoo.T.M foo.TestPlanted", "foo.T.M is reached"},
		{"undeclared entry", "foo.Planted foo.TestPlanted\nfoo.Gone foo.TestPlanted", "foo.Gone is no longer declared"},
		{"missing test", "foo.Planted foo.TestNoSuchTest", "test foo.TestNoSuchTest not found"},
		{"test in another package", "foo.Planted bar.TestPlanted", "test bar.TestPlanted not found"},
		{"test package no longer reaches it", "foo.Planted bar.TestBar", "bar tests no longer reach foo.Planted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allow, err := parseAllow(strings.NewReader("# comment\n\n" + tc.allow + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			r := check(decls, reached, allow, suites)
			if len(r.unallowed) != 0 {
				t.Errorf("unallowed = %v", r.unallowed)
			}
			switch {
			case tc.stale == "" && len(r.stale) != 0:
				t.Errorf("stale = %v, want none", r.stale)
			case tc.stale != "" && (len(r.stale) != 1 || !strings.Contains(r.stale[0], tc.stale)):
				t.Errorf("stale = %v, want one containing %q", r.stale, tc.stale)
			}
		})
	}
}

func TestParseAllowRejectsMalformedLine(t *testing.T) {
	for _, line := range []string{"foo.Planted", "foo.Planted TestPlanted"} {
		if _, err := parseAllow(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q: a line without a package-qualified test must be rejected", line)
		}
	}
}
