package dtmsvs

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// exportsWithoutCallers lists the internal exports that no non-test
// file of the module references, each with the reason it stays:
//
//   - oracle: a test holds live code to it as the reference;
//   - observation: an accessor or entry point that is a test's only
//     view of live state or behaviour;
//   - fixture: test machinery that injects faults into live code or
//     starts a fresh stream the engines only ever reuse.
var exportsWithoutCallers = map[string]string{
	"internal/channel.Link.ShadowDB":        "oracle: the per-tick fade the batched tick loop is held to",
	"internal/channel.Params.MeanSNRdB":     "oracle: the per-tick mean SNR the batched tick loop is held to",
	"internal/channel.Params.PathLossDB":    "oracle: the per-tick path loss the batched tick loop is held to",
	"internal/checkpoint.Dec.U16":           "oracle: decodes the live Enc.U16",
	"internal/checkpoint.Enc.Err":           "observation: the ErrTooLarge latch Writer.Section reports",
	"internal/checkpoint.NewWriter":         "fixture: a fresh stream; the engines reuse one Writer through Reset",
	"internal/cnn.Compressor.Epochs":        "observation: the epochs a training run performed",
	"internal/cnn.Compressor.InputDim":      "observation: the flattened window width",
	"internal/ddqn.Agent.Epsilon":           "observation: the exploration schedule",
	"internal/ddqn.ReplayBuffer.Cap":        "observation: the ring's capacity",
	"internal/edge.Cache.Capacity":          "observation: the cache's byte budget",
	"internal/edge.Cache.Len":               "observation: the cached representations",
	"internal/faultinject.NewWriter":        "fixture: fails an io.Writer on schedule",
	"internal/faultinject.Plan":             "fixture: seeds a sink fault schedule",
	"internal/faultinject.Sink.Flush":       "fixture: the fault-injecting record sink",
	"internal/faultinject.Sink.Flushes":     "fixture: the fault-injecting record sink",
	"internal/faultinject.Sink.WriteRecord": "fixture: the fault-injecting record sink",
	"internal/faultinject.Sink.Writes":      "fixture: the fault-injecting record sink",
	"internal/faultinject.Wrap":             "fixture: the fault-injecting record sink",
	"internal/faultinject.Writer.Writes":    "fixture: the fault-injecting io.Writer",
	"internal/grouping.Builder.Config":      "observation: the builder's configuration after defaults",
	"internal/grouping.Result.Assignments":  "observation: a construction's per-user groups",
	"internal/kmeans.DistMatrix.At":         "observation: one staged distance, by the silhouette kernel",
	"internal/mobility.Map.Contains":        "observation: whether a placed point lies on the map",
	"internal/nn.Network.Layers":            "observation: the layers whose weights and gradients tests compare",
	"internal/predict.NewSwipeDistribution": "observation: the live swipe fold over raw observations at weight one",
	"internal/radio.Scheduler.Total":        "observation: the RB budget",
	"internal/radio.Scheduler.Used":         "observation: the RBs granted this interval",
	"internal/sim.Simulation.NumGroups":     "observation: a cell's current groups",
	"internal/stats.Categorical.Prob":       "observation: one category's probability",
	"internal/stats.Histogram.Add":          "oracle: one observation at a time, which AddN is held to",
	"internal/stats.LogNormal.Mean":         "oracle: the analytic mean samples are held to",
	"internal/stats.TailMean":               "observation: TailMeanInPlace on a copy, the input left in order",
	"internal/stats.Zipf.N":                 "observation: the support size",
	"internal/udt.Twin.Preference":          "observation: the last preference snapshot",
	"internal/udt.Twin.Staleness":           "observation: an attribute's age",
	"internal/udt.Twin.SwipeStats":          "observation: the cumulative swipe and view counts",
	"internal/udt.Twin.Ticks":               "observation: the collection clock",
	"internal/vecmath.AXPY":                 "oracle: the checked scalar loop the dispatched kernels are held to",
	"internal/vecmath.ForceGeneric":         "oracle: pins dispatch to the scalar reference kernels",
	"internal/vecmath.Matrix.At":            "observation: one weight",
	"internal/vecmath.Matrix.Clone":         "observation: a weight snapshot",
	"internal/vecmath.Matrix.Set":           "observation: plants one weight",
	"internal/video.Catalog.ByCategory":     "observation: one category's videos",
}

// goListPackage is the part of `go list -json` the scan reads.
type goListPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
}

// TestInternalExportsHaveCallers type-checks the module, with the
// standard library it imports, and fails on every export of an
// internal package that no non-test file of the module references:
// exported package-level functions, types, variables and constants,
// and exported methods of package-level types. A method counts as
// reached when it is referenced, when its type implements an interface
// that declares it, or when the root package's exported API reaches
// its type (an alias, or a type such an alias's methods return).
// Struct fields are not scanned. A function calling itself is not its
// own caller. The scan reads the default build of this platform, with
// cgo off so no file needs cgo's preprocessing.
func TestInternalExportsHaveCallers(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	cmd := exec.Command(goBin, "list", "-deps", "-json", "./...")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOFLAGS=")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var pkgs []goListPackage
	for dec := json.NewDecoder(out); ; {
		var p goListPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("go list: %v", err)
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	var module []*moduleFiles
	for _, p := range pkgs {
		if p.ImportPath == "unsafe" {
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{
			Importer:         importerFunc(func(path string) (*types.Package, error) { return importPath(checked, p.ImportMap, path) }),
			Sizes:            types.SizesFor("gc", runtime.GOARCH),
			IgnoreFuncBodies: p.Standard,
		}
		var info *types.Info
		if p.Standard {
			// Declarations are all the scan needs of the standard library.
			conf.Error = func(error) {}
		} else {
			info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil && !p.Standard {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if !p.Standard {
			module = append(module, &moduleFiles{path: p.ImportPath, pkg: pkg, files: files, info: info})
		}
	}

	used := referencedObjects(module)
	ifaces := interfacesByMethod(checked)
	public := publicTypes(checked["dtmsvs"])
	var flagged []string
	for _, m := range module {
		if !strings.Contains(m.path+"/", "/internal/") {
			continue
		}
		for _, name := range unreachedExports(m.pkg, used, ifaces, public) {
			flagged = append(flagged, strings.TrimPrefix(m.path, "dtmsvs/")+"."+name)
		}
	}
	sort.Strings(flagged)
	seen := map[string]bool{}
	for _, name := range flagged {
		seen[name] = true
		if _, ok := exportsWithoutCallers[name]; !ok {
			t.Errorf("%s is exported and no non-test file references it: delete it, or allowlist it with its reason", name)
		}
	}
	for name := range exportsWithoutCallers {
		if !seen[name] {
			t.Errorf("allowlisted %s has a non-test caller or is gone: drop its entry", name)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPath resolves an import through the importing package's vendor
// map to a package already checked: `go list -deps` orders every
// package after its dependencies.
func importPath(checked map[string]*types.Package, importMap map[string]string, path string) (*types.Package, error) {
	if mapped, ok := importMap[path]; ok {
		path = mapped
	}
	if pkg, ok := checked[path]; ok {
		return pkg, nil
	}
	return nil, errors.New("import " + path + " not yet checked")
}

// moduleFiles is one type-checked package of the module.
type moduleFiles struct {
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// referencedObjects returns every object a non-test file of the module
// references, less a function's references to itself. Methods and
// fields of generic instances resolve to their origin.
func referencedObjects(module []*moduleFiles) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, m := range module {
		for _, f := range m.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = m.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := origin(m.info.Uses[id])
					if obj != nil && obj != self {
						used[obj] = true
					}
					return true
				})
			}
		}
	}
	return used
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// publicTypes returns the named types the root package's exported API
// reaches: through its declarations' types, and onward through the
// exported fields and method signatures of every type reached. Their
// methods are public API whether or not the module calls them.
func publicTypes(root *types.Package) map[*types.Named]bool {
	seen := map[*types.Named]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			t = t.Origin()
			if seen[t] {
				return
			}
			seen[t] = true
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	scope := root.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			walk(obj.Type())
		}
	}
	return seen
}

// interfacesByMethod indexes every named interface of the checked
// packages, error, and the errors package's unnamed Unwrap, Is and As
// protocols by the names of their methods.
func interfacesByMethod(checked map[string]*types.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType.Underlying().(*types.Interface))
	method := func(name string, param, result types.Type) *types.Interface {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewParam(token.NoPos, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	add(method("Unwrap", nil, errType))
	add(method("Unwrap", nil, types.NewSlice(errType)))
	add(method("Is", errType, types.Typ[types.Bool]))
	add(method("As", types.Universe.Lookup("any").Type(), types.Typ[types.Bool]))
	for _, pkg := range checked {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(iface)
				}
			}
		}
	}
	return byName
}

// unreachedExports lists pkg's exported package-level objects, and the
// exported methods of its package-level types, that nothing reaches.
func unreachedExports(pkg *types.Package, used map[types.Object]bool, ifaces map[string][]*types.Interface, public map[*types.Named]bool) []string {
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !used[obj] {
			out = append(out, name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface || public[named] {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() && !used[m] && !implementsWith(named, m.Name(), ifaces) {
				out = append(out, name+"."+m.Name())
			}
		}
	}
	return out
}

// implementsWith reports whether T or *T implements an interface that
// declares a method called method.
func implementsWith(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces[method] {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}
