package ppj

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The product is what runs: a function or method under internal/ or cmd/
// that no entry point reaches is code only tests keep alive. The scan
// type-checks every non-test file of the tree, nested modules such as
// benchmark/ included, and follows the functions each reached body uses
// from the roots: every main and init, every package-level var initialiser,
// the root package's exported functions and methods, and the names
// testdata/exports.allow lists. The allowlist holds the deliberate ones
// (test seams, reference oracles, thesis closed forms pinned by tests,
// features with no product entry point yet), one "package[.Type].Name
// reason" a line, the package being the directory name. A call through an
// interface names the interface's method, so a method counts as reached
// when an interface in the program declares its name, or stdlibMethods does.

// stdlibMethods satisfy a standard-library interface (fmt.Stringer, error,
// errors, gob, encoding, io, sort) the library calls without the program
// naming it.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"GobEncode": true, "GobDecode": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true,
}

// program is the type-checked tree.
type program struct {
	info    *types.Info
	bodies  map[*types.Func]*ast.BlockStmt
	quals   map[string][]*types.Func // package[.Type].Name → declarations
	product map[*types.Func]bool     // declared under internal/ or cmd/
	roots   []ast.Node               // main, init and var initialisers
	seeds   []*types.Func            // the root package's API and interface-named methods
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadProgram type-checks every non-test .go file under root that the build
// constraints select, skipping directories named testdata or starting with
// "." or "_" as the go tool does. A directory's import path is the module
// path of the nearest enclosing go.mod plus the directory's path below it;
// every other import comes from the standard library.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → files
	rels := map[string]string{}       // import path → directory below root
	var modDirs, modPaths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			if mod, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
				_, decl, _ := strings.Cut(string(mod), "module ")
				modDirs, modPaths = append(modDirs, p), append(modPaths, strings.Fields(decl)[0])
			}
			return nil
		}
		dir := filepath.Dir(p)
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, d.Name()); !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		i := len(modDirs) - 1
		below, _ := filepath.Rel(modDirs[i], dir)
		for strings.HasPrefix(below, "..") {
			i--
			below, _ = filepath.Rel(modDirs[i], dir)
		}
		ipath := path.Join(modPaths[i], filepath.ToSlash(below))
		rel, _ := filepath.Rel(root, dir)
		files[ipath], rels[ipath] = append(files[ipath], f), filepath.ToSlash(rel)
		return nil
	})
	if err != nil {
		return nil, err
	}

	prog := &program{
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		bodies:  map[*types.Func]*ast.BlockStmt{},
		quals:   map[string][]*types.Func{},
		product: map[*types.Func]bool{},
	}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(ipath string) (*types.Package, error) {
		if files[ipath] == nil {
			return std.Import(ipath)
		}
		if checked[ipath] == nil {
			pkg, err := (&types.Config{Importer: imp}).Check(ipath, fset, files[ipath], prog.info)
			if err != nil {
				return nil, err
			}
			checked[ipath] = pkg
		}
		return checked[ipath], nil
	}
	for ipath, rel := range rels {
		if _, err := imp(ipath); err != nil {
			return nil, err
		}
		for _, f := range files[ipath] {
			prog.declare(f, path.Base(rel), rel == ".", strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/"))
		}
	}
	dispatch := maps.Clone(stdlibMethods)
	for _, tv := range prog.info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := range iface.NumMethods() {
				dispatch[iface.Method(i).Name()] = true
			}
		}
	}
	for fn := range prog.bodies {
		if fn.Signature().Recv() != nil && dispatch[fn.Name()] {
			prog.seeds = append(prog.seeds, fn)
		}
	}
	return prog, nil
}

// declare records one file's functions and roots under the package name pkg.
func (prog *program) declare(f *ast.File, pkg string, isAPI, inProduct bool) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && decl.Tok == token.VAR {
					for _, v := range vs.Values {
						prog.roots = append(prog.roots, v)
					}
				}
			}
		case *ast.FuncDecl:
			name := decl.Name.Name
			if decl.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main") {
				prog.roots = append(prog.roots, decl.Body)
				continue
			}
			fn := prog.info.Defs[decl.Name].(*types.Func)
			qual := pkg + "." + name
			if decl.Recv != nil {
				recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(decl.Recv.List[0].Type), "*"), "[")
				qual = pkg + "." + recv + "." + name
			}
			prog.bodies[fn], prog.quals[qual], prog.product[fn] = decl.Body, append(prog.quals[qual], fn), inProduct
			if isAPI && decl.Name.IsExported() {
				prog.seeds = append(prog.seeds, fn)
			}
		}
	}
}

// reach returns the functions that the roots, the seeds and extra reach
// through the functions each reached body uses.
func (prog *program) reach(extra []*types.Func) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	work := slices.Clone(prog.roots)
	mark := func(fn *types.Func) {
		if fn = fn.Origin(); !reached[fn] {
			reached[fn] = true
			if body := prog.bodies[fn]; body != nil {
				work = append(work, body)
			}
		}
	}
	for _, fn := range slices.Concat(prog.seeds, extra) {
		mark(fn)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := prog.info.Uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}
	return reached
}

// checkExports scans root against the allowlist file allowPath. It returns
// the unreached functions under internal/ and cmd/ the allowlist does not
// name, the entries that are stale (reached without the allowlist, or not
// declared) and those without a reason.
func checkExports(root, allowPath string) (testOnly, stale, noReason []string, err error) {
	prog, err := loadProgram(root)
	if err != nil {
		return nil, nil, nil, err
	}
	text, err := os.ReadFile(allowPath)
	if err != nil {
		return nil, nil, nil, err
	}
	live := prog.reach(nil)
	var allowed []*types.Func
	for _, line := range strings.Split(string(text), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		fns := prog.quals[name]
		if len(fns) == 0 || slices.ContainsFunc(fns, func(fn *types.Func) bool { return live[fn] }) {
			stale = append(stale, name)
		}
		if strings.TrimSpace(reason) == "" {
			noReason = append(noReason, name)
		}
		allowed = append(allowed, fns...)
	}
	live = prog.reach(allowed)
	for qual, fns := range prog.quals {
		if slices.ContainsFunc(fns, func(fn *types.Func) bool { return prog.product[fn] && !live[fn] }) {
			testOnly = append(testOnly, qual)
		}
	}
	slices.Sort(testOnly)
	return testOnly, stale, noReason, nil
}

func TestNoTestOnlyExports(t *testing.T) {
	testOnly, stale, noReason, err := checkExports(".", "testdata/exports.allow")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testOnly {
		t.Errorf("no command, example, benchmark or public API reaches %s, only tests: delete it with its tests, move it into a _test.go file, or allowlist it in testdata/exports.allow with a reason", q)
	}
	for _, q := range stale {
		t.Errorf("testdata/exports.allow lists %s, which is no longer declared or is now reached without the allowlist: remove the entry", q)
	}
	for _, q := range noReason {
		t.Errorf("testdata/exports.allow lists %s without a reason", q)
	}
}

// TestExportScanFixture is the guard's negative control. The fixture holds
// used functions, a fmt.Stringer method, an allowlisted name with the
// unexported helper only it calls, a stale entry, and functions only tests
// reach: Store.Purge; Cache.Put, which shares its name with the used
// Store.Put; and Compact, whose one caller Reset only a test calls. Those
// four and the stale entry must be reported, and nothing else.
func TestExportScanFixture(t *testing.T) {
	root := filepath.Join("testdata", "exportscan")
	testOnly, stale, noReason, err := checkExports(root, filepath.Join(root, "exports.allow"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"store.Cache.Put", "store.Compact", "store.Reset", "store.Store.Purge"}; !reflect.DeepEqual(testOnly, want) {
		t.Errorf("test-only functions = %v, want %v", testOnly, want)
	}
	if want := []string{"store.Gone"}; !reflect.DeepEqual(stale, want) || noReason != nil {
		t.Errorf("stale allowlist entries = %v, want %v; entries without a reason %v", stale, want, noReason)
	}
}

// TestOneByteFormat: every byte the wire carries or the host keeps is in
// internal/frame's format, so no non-test file imports encoding/gob, and
// only internal/frame imports hash/crc32, for the one checksum disk frames
// end in.
func TestOneByteFormat(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && p != "." && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			switch ipath, _ := strconv.Unquote(imp.Path.Value); {
			case ipath == "encoding/gob":
				t.Errorf("%s imports encoding/gob: encode with internal/frame", p)
			case ipath == "hash/crc32" && filepath.ToSlash(filepath.Dir(p)) != "internal/frame":
				t.Errorf("%s imports hash/crc32: checked frames are internal/frame's", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
