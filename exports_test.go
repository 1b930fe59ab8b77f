package ppj

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The product is what runs: an exported function or method under internal/
// or cmd/ that no non-test file names is code only tests keep alive.
// testdata/exports.allow lists the deliberate ones (test seams, reference
// oracles, thesis closed forms pinned by tests), one "package[.Type].Name
// reason" a line, the package being the directory name. The root package is
// the public API and is not scanned.

// stdlibMethods satisfy a standard-library interface (fmt.Stringer, error,
// errors, gob, encoding, io, sort), so they are used without being named.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"GobEncode": true, "GobDecode": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true,
}

// scanExports parses every non-test .go file under root, skipping
// directories named testdata or starting with "." or "_" as the go tool
// does, and returns the sorted qualified names of the exported functions
// and methods under root/internal and root/cmd whose name appears in no
// non-test file other than at its own declaration. A method named in an
// interface the repository declares is therefore used; one in
// stdlibMethods always is.
func scanExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	decls := map[string]string{} // qualified name → name
	declared := map[*ast.Ident]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel = filepath.ToSlash(rel); !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			return nil
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Recv != nil && stdlibMethods[fn.Name.Name] {
				continue
			}
			declared[fn.Name] = true
			qual := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
				qual = pkg + "." + recv + "." + fn.Name.Name
			}
			decls[qual] = fn.Name.Name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var unused []string
	for qual, name := range decls {
		if !used[name] {
			unused = append(unused, qual)
		}
	}
	slices.Sort(unused)
	return unused, nil
}

// checkExports scans root against the allowlist file allowPath. It returns
// the unreferenced exports the allowlist does not name, the entries that
// are stale (now referenced, or not declared) and those without a reason.
func checkExports(root, allowPath string) (testOnly, stale, noReason []string, err error) {
	unused, err := scanExports(root)
	if err != nil {
		return nil, nil, nil, err
	}
	text, err := os.ReadFile(allowPath)
	if err != nil {
		return nil, nil, nil, err
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		allowed[name] = true
		if strings.TrimSpace(reason) == "" {
			noReason = append(noReason, name)
		}
		if !slices.Contains(unused, name) {
			stale = append(stale, name)
		}
	}
	for _, q := range unused {
		if !allowed[q] {
			testOnly = append(testOnly, q)
		}
	}
	return testOnly, stale, noReason, nil
}

func TestNoTestOnlyExports(t *testing.T) {
	testOnly, stale, noReason, err := checkExports(".", "testdata/exports.allow")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testOnly {
		t.Errorf("%s is exported but only tests call it: delete it with its tests, move it into a _test.go file, or allowlist it in testdata/exports.allow with a reason", q)
	}
	for _, q := range stale {
		t.Errorf("testdata/exports.allow lists %s, which is no longer declared or now has a non-test caller: remove the entry", q)
	}
	for _, q := range noReason {
		t.Errorf("testdata/exports.allow lists %s without a reason", q)
	}
}

// TestExportScanFixture is the guard's negative control. The fixture holds
// one used export, one test-only export, one method satisfying fmt.Stringer,
// one allowlisted name and one stale allowlist entry; only the test-only
// export and the stale entry may be reported.
func TestExportScanFixture(t *testing.T) {
	root := filepath.Join("testdata", "exportscan")
	testOnly, stale, noReason, err := checkExports(root, filepath.Join(root, "exports.allow"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"store.Store.Purge"}; !reflect.DeepEqual(testOnly, want) {
		t.Errorf("test-only exports = %v, want %v", testOnly, want)
	}
	if want := []string{"store.Gone"}; !reflect.DeepEqual(stale, want) || noReason != nil {
		t.Errorf("stale allowlist entries = %v, want %v; entries without a reason %v", stale, want, noReason)
	}
}
