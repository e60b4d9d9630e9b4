package gossipmia

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachability is the one table of the gate: what counts as running,
// and every declaration kept although nothing running reaches it.
var reachability = struct {
	// rootDirs are roots whole, tests included: the measuring harness
	// is not this gate's to shrink, so whatever it calls stays.
	rootDirs []string
	// apiDirs hold the public SDK: every exported name in their
	// non-test files is a root.
	apiDirs []string
	// byName are methods the standard library finds through an
	// interface it never names (errors.Is, errors.As and errors.Unwrap
	// assert on anonymous ones). Every other interface method is found
	// by types.Implements.
	byName []string
	// ledger: symbol → the test that needs it, one line why. A symbol
	// is DIR.Name or DIR.Type.Method, a test DIR.TestName, DIR relative
	// to the module root. What only a ledger symbol calls stays with it
	// and needs no entry of its own.
	ledger []ledgerEntry
}{
	rootDirs: []string{"benchmark"},
	apiDirs:  []string{"pkg"},
	byName:   []string{"Is", "As", "Unwrap"},
	ledger: []ledgerEntry{
		// The per-example reference the batched path is held bit-identical to.
		{"internal/nn.MLP.Logits", "internal/nn.TestScoreBatchMatchesPerExampleForward", "the per-example forward pass ScoreBatch is held bit-identical to"},
		{"internal/nn.MLP.Probs", "internal/nn.TestProbsIntoMatchesProbs", "softmax of the per-example forward pass (keeps ProbsInto, its no-allocation form)"},
		{"internal/nn.MLP.Loss", "internal/nn.TestGradientCheck", "the scalar loss the analytic gradient is differenced against"},
		{"internal/nn.MLP.Predict", "internal/nn.TestTrainingReducesLossOnToyProblem", "per-example argmax: the toy problem's accuracy"},
		{"internal/nn.MLP.BatchGrad", "internal/nn.TestBatchGradBitIdenticalToExampleLoop", "the mean gradient held bit-identical to the ExampleGrad loop DP-SGD runs"},
		{"internal/nn.MLP.SetParams", "internal/nn.TestSetParamsAndErrors", "loads a parameter vector to show the forward pass reads the flat buffer"},
		{"internal/nn.SGD.Step", "internal/nn.TestSGDMomentumAccelerates", "the optimizer step alone, without a trainer: momentum, weight decay, shape errors"},
		{"internal/nn.SGD.LR", "internal/nn.TestTrainerAppliesDecayPerEpoch", "reads the decayed rate the trainer's fused step uses"},
		{"internal/nn.SGD.Reset", "internal/nn.TestSGDShapeErrorsAndReset", "clears the velocity so the next step is a first step"},
		{"internal/metrics.GenError", "internal/core.TestGenErrorScoredOnceMatchesGenError", "Equation 8 from two Accuracy sweeps: the oracle of the attack's scored-once count"},
		{"internal/tensor.Average", "internal/gossip.TestGossipDrivesConsensus", "the consensus point the nodes' models are measured against"},
		{"internal/tensor.Dot", "internal/tensor.TestUnrolledVectorKernels", "kept by ISSUE 23's list; its own bit-exactness check is its only caller"},
		// The dense W of Section 4, which the matrix-free mixing is checked against.
		{"internal/graph.Regular.MixingMatrix", "internal/graph.TestApplyMixingMatchesMatrix", "dense W: the oracle of ApplyMixing (keeps tensor.NewMatrix and Matrix.Set)"},
		{"internal/tensor.Matrix.MatVec", "internal/graph.TestApplyMixingMatchesMatrix", "W·x the slow way"},
		{"internal/tensor.Matrix.IsDoublyStochastic", "internal/graph.TestMixingMatrixProperties", "the property Section 4's analysis needs of W"},
		{"internal/tensor.Matrix.IsSymmetric", "internal/graph.TestMixingMatrixProperties", "likewise: ApplyTranspose relies on it"},
		{"internal/graph.SecondEigenvalue", "internal/graph.TestSecondEigenvalueRingExact", "one-step ContractionFactor: exact ring and complete-graph eigenvalues hold Figure 10's engine"},
		// Invariant probes: what a test asks of state the program only writes.
		{"internal/graph.Regular.Validate", "internal/graph.TestPeerSwapPreservesRegularityProperty", "k-regular, simple, symmetric after every swap and permutation"},
		{"internal/rps.Service.Validate", "internal/rps.TestShuffleInvariantsProperty", "view invariants after every shuffle"},
		{"internal/rps.Service.InDegrees", "internal/rps.TestInDegreeStaysNearUniform", "the in-degree balance peer sampling promises"},
		{"internal/rps.Service.Reachable", "internal/rps.TestShuffleKeepsNetworkConnected", "connectivity of the overlay"},
		{"internal/data.Dataset.Validate", "internal/data.TestCatalogAndGenerators", "shape and label range of every generated corpus (keeps Dataset.Dim)"},
		{"internal/data.Dataset.Clone", "internal/core.TestKeepFinalModelsSurviveLaterArms", "freezes a kept split before later arms reuse the arena"},
		{"internal/data.Dataset.LabelHistogram", "internal/data.TestPartitionDirichletHeterogeneity", "the label skew a Dirichlet partition must show"},
		{"internal/tensor.Arena.Used", "internal/core.TestArenaUseIsBoundedByRounds", "the arena's high-water mark"},
		{"internal/distrib.Dispatcher.Draining", "internal/server.TestDrainRefusesClaimsHonorsLeases", "the drain flag behind refused claims"},
		{"internal/server.Server.Draining", "internal/server.TestDrainFinishesRunningJobs", "the drain flag behind refused submissions"},
		{"internal/gossip.Simulator.Topology", "internal/gossip.TestDynamicKeepsGraphRegular", "the live graph PeerSwap rewires"},
		{"internal/gossip.Simulator.TransportName", "internal/gossip.TestLatencyTransportDelaysDelivery", "which transport the configuration selected"},
		{"internal/gossip.Simulator.NodeDown", "internal/gossip.TestChurnPermanentDeparture", "a node's churn state"},
		{"internal/gossip.Simulator.MessagesDropped", "internal/gossip.TestDropNearOnePreventsDelivery", "the loss counter of the failure, partition and churn models"},
		{"internal/gossip.Simulator.MessagesDelayed", "internal/gossip.TestLatencyTransportDelaysDelivery", "the delivery queue's counter"},
		{"internal/gossip.Simulator.PendingDeliveries", "internal/gossip.TestChurnLosesInFlightMessages", "messages still in flight"},
		{"internal/netmodel.Latency.LinkDelay", "internal/netmodel.TestLatencyDeterministicAndPositive", "one link's delay: symmetric, positive, a function of the seed"},
		{"internal/dp.Accountant.Steps", "internal/dp.TestAccountantComposition", "the composed step count"},
		{"internal/dp.Accountant.EpsilonFor", "internal/dp.TestAccountantComposition", "ε at a step count without spending it: monotone in steps"},
		{"internal/metrics.Series.Last", "internal/core.TestStudyRunProducesSeries", "the final round's record"},
		// Shared test helpers.
		{"internal/tensor.EqualApprox", "internal/gossip.TestDeterminism", "vector comparison in 28 tests of five packages"},
		{"internal/tensor.Vector.SubInPlace", "internal/gossip.TestGossipDrivesConsensus", "distance to the consensus point"},
		{"internal/sink.Memory", "internal/sink.TestMultiSinkFansOut", "the sink a test can read back"},
		// A forward reference: ROADMAP item 2's claims evaluator is its
		// first caller. It leaves this list when that lands, or goes if it
		// lands without it.
		{"internal/stats.MeanDiff", "internal/stats.TestMeanDiff", "the paired-difference interval a claim about two arms needs"},
	},
}

type ledgerEntry struct{ symbol, test, why string }

// TestNothingUnreached type-checks every package of the module, tests
// included, and walks the reference graph from the roots: main, init,
// everything under reachability.rootDirs and the exported names under
// reachability.apiDirs. A reached type also reaches those of its
// methods that satisfy an interface. It fails on a declaration outside
// test files that neither the roots nor a ledger symbol reach, and on
// a ledger entry that is reachable from the roots or from the rest of
// the ledger, gone, or not reached from the test it names.
func TestNothingUnreached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	a, err := loadAudit(".")
	if err != nil {
		t.Fatal(err)
	}
	roots := a.roots()
	kept := make([]token.Pos, len(reachability.ledger)) // NoPos where the symbol is gone
	for i, e := range reachability.ledger {
		if d := a.bySymbol[e.symbol]; d != nil {
			kept[i] = d.pos
		}
	}
	running := a.reach(roots)
	for i, e := range reachability.ledger {
		d, td := a.bySymbol[e.symbol], a.bySymbol[e.test]
		switch {
		case d == nil || d.test:
			t.Errorf("ledger: %s is gone: delete the entry", e.symbol)
		case running[d.pos]:
			t.Errorf("ledger: %s is reached from a root: delete the entry", e.symbol)
		case a.reach(roots, kept[:i], kept[i+1:])[d.pos]:
			t.Errorf("ledger: %s is kept by another entry: delete this one", e.symbol)
		case td == nil || !td.test:
			t.Errorf("ledger: %s names %s, which does not exist: delete both", e.symbol, e.test)
		case !a.reach([]token.Pos{td.pos})[d.pos]:
			t.Errorf("ledger: %s is not reached from %s: name the test that needs it, or delete it", e.symbol, e.test)
		}
	}

	live := a.reach(roots, kept)
	var unreached []string
	for _, d := range a.decls {
		// A method of an unreached type goes with the type.
		if d.test || live[d.pos] || d.recv != token.NoPos && !live[d.recv] {
			continue
		}
		unreached = append(unreached, fmt.Sprintf("%s (%s)", d.symbol(), a.fset.Position(d.pos)))
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d declarations no root reaches; delete each, or list it in the ledger beside the test that needs it:\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
}

// decl is one package-level declaration or method: a node of the
// reference graph, identified by the position of its name (one
// FileSet, each file parsed once, so every type-check of a file agrees
// on it).
type decl struct {
	dir, recvName, name string
	pos, recv           token.Pos // recv: the receiver's type declaration
	test                bool      // declared in a _test.go file
	edges               []token.Pos
}

func (d *decl) symbol() string {
	if d.recvName != "" {
		return d.dir + "." + d.recvName + "." + d.name
	}
	return d.dir + "." + d.name
}

type auditDir struct {
	rel, name                      string
	goFiles, testFiles, xtestFiles []*ast.File
}

func (d *auditDir) withTests() []*ast.File {
	return append(append([]*ast.File(nil), d.goFiles...), d.testFiles...)
}

type audit struct {
	module   string
	fset     *token.FileSet
	dirs     map[string]*auditDir // by import path
	std      types.Importer
	decls    []*decl
	byPos    map[token.Pos]*decl
	bySymbol map[string]*decl
}

// universe is one consistent set of type-checked imports: a module
// package is its non-test files (the package named tested, its
// in-package tests too), checked once, and everything else comes from
// the standard library's sources.
type universe struct {
	a      *audit
	tested string
	pkgs   map[string]*types.Package
	types  []*types.TypeName
	ifaces map[*types.Interface]bool
}

func (a *audit) newUniverse(tested string) *universe {
	return &universe{a: a, tested: tested, pkgs: map[string]*types.Package{}, ifaces: map[*types.Interface]bool{}}
}

func (u *universe) Import(p string) (*types.Package, error) {
	d, ok := u.a.dirs[p]
	if !ok {
		return u.a.std.Import(p)
	}
	if pkg, ok := u.pkgs[p]; ok {
		return pkg, nil
	}
	files := d.goFiles
	if p == u.tested {
		files = d.withTests()
	}
	pkg, err := u.check(p, d, files)
	if err != nil {
		return nil, err
	}
	u.pkgs[p] = pkg
	return pkg, nil
}

// loadAudit parses every package directory under root, type-checks each
// as the go command would build it for `go test`, and records the
// declarations and the references between them.
func loadAudit(root string) (*audit, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	line, _, _ := strings.Cut(string(mod), "\n")
	a := &audit{
		module:   strings.TrimSpace(strings.TrimPrefix(line, "module")),
		fset:     token.NewFileSet(),
		dirs:     map[string]*auditDir{},
		byPos:    map[token.Pos]*decl{},
		bySymbol: map[string]*decl{},
	}
	// The source importer reads build.Default; without cgo it takes the
	// standard library's pure-Go files and needs no C toolchain.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	a.std = importer.ForCompiler(a.fset, "source", nil)

	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if base := e.Name(); p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, empty := err.(*build.NoGoError); err != nil && !empty {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		d := &auditDir{rel: filepath.ToSlash(rel), name: bp.Name}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &d.goFiles}, {bp.TestGoFiles, &d.testFiles}, {bp.XTestGoFiles, &d.xtestFiles}} {
			for _, n := range set.names {
				f, err := parser.ParseFile(a.fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		if len(d.goFiles)+len(d.testFiles)+len(d.xtestFiles) > 0 {
			a.dirs[path.Join(a.module, d.rel)] = d
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(a.dirs))
	for p := range a.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// The program: every package without its tests, where a type of one
	// package may stand behind an interface of any other.
	plain := a.newUniverse("")
	for _, p := range paths {
		if len(a.dirs[p].goFiles) > 0 {
			if _, err := plain.Import(p); err != nil {
				return nil, err
			}
		}
	}
	plain.bind()
	// The tests: each package again with its in-package tests, and its
	// external test package against a universe in which everything
	// that imports the package sees its export_test.go too.
	for _, p := range paths {
		d := a.dirs[p]
		if len(d.testFiles)+len(d.xtestFiles) == 0 {
			continue
		}
		u := a.newUniverse(p)
		if len(d.testFiles) > 0 {
			if _, err := u.Import(p); err != nil {
				return nil, err
			}
		}
		if len(d.xtestFiles) > 0 {
			if _, err := u.check(p+"_test", d, d.xtestFiles); err != nil {
				return nil, err
			}
		}
		u.bind()
	}
	return a, nil
}

// check type-checks files as package p against u's imports, adds the
// declarations not yet seen and their references to the graph, and
// notes the package's types and the interfaces it mentions for bind.
func (u *universe) check(p string, d *auditDir, files []*ast.File) (*types.Package, error) {
	a := u.a
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: u}).Check(p, a.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}

	add := func(id *ast.Ident, refs ast.Node) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" || a.byPos[id.Pos()] != nil {
			return
		}
		n := &decl{dir: d.rel, name: id.Name, pos: id.Pos(), test: strings.HasSuffix(a.fset.File(id.Pos()).Name(), "_test.go")}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if tn := namedOf(recv.Type()); tn != nil {
					n.recv, n.recvName = tn.Pos(), tn.Name()
				}
			}
		} else if tn := namedOf(obj.Type()); tn != nil && tn.Pos() != n.pos {
			// A constant of an iota block names its type only on the first line.
			n.edges = append(n.edges, tn.Pos())
		}
		ast.Inspect(refs, func(x ast.Node) bool {
			if use, ok := x.(*ast.Ident); ok {
				if to := info.Uses[use]; to != nil && a.isDecl(to) {
					n.edges = append(n.edges, originPos(to))
				}
			}
			return true
		})
		a.decls = append(a.decls, n)
		a.byPos[n.pos] = n
		a.bySymbol[n.symbol()] = n
	}
	for _, f := range files {
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				add(gd.Name, gd)
			case *ast.GenDecl:
				for _, s := range gd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}

	for _, tv := range info.Types {
		u.addIface(tv.Type)
	}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
			u.types = append(u.types, tn)
		}
	}
	return pkg, nil
}

func (u *universe) addIface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
		u.ifaces[it] = true
	}
}

// bind makes every type checked in u reach the methods that let it
// stand behind an interface: one a package of u mentions, a named one
// of any package u imports, however indirectly, or one of byName.
func (u *universe) bind() {
	a := u.a
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(q *types.Package) {
		if seen[q] {
			return
		}
		seen[q] = true
		for _, name := range q.Scope().Names() {
			if tn, ok := q.Scope().Lookup(name).(*types.TypeName); ok {
				u.addIface(tn.Type())
			}
		}
		for _, imp := range q.Imports() {
			visit(imp)
		}
	}
	for _, tn := range u.types {
		visit(tn.Pkg())
	}
	byName := map[string]bool{}
	for _, m := range reachability.byName {
		byName[m] = true
	}
	for _, tn := range u.types {
		n := a.byPos[tn.Pos()]
		if n == nil {
			continue
		}
		reach := func(m types.Object) {
			if m != nil && a.isDecl(m) {
				n.edges = append(n.edges, originPos(m))
			}
		}
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); byName[m.Name()] {
				reach(m)
			}
		}
		for it := range u.ifaces {
			if !types.Implements(tn.Type(), it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				m, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
				reach(m)
			}
		}
	}
}

// isDecl reports whether obj is a node of the graph: a package-level
// object or a method of a package of this module.
func (a *audit) isDecl(obj types.Object) bool {
	if obj.Pkg() == nil || a.dirs[strings.TrimSuffix(obj.Pkg().Path(), "_test")] == nil {
		return false
	}
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// originPos is where obj was declared; a method of an instantiated
// generic type is declared where its generic one is.
func originPos(obj types.Object) token.Pos {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin().Pos()
	}
	return obj.Pos()
}

// namedOf returns the declared name behind t, through one pointer.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj()
	case *types.Alias:
		return t.Obj()
	}
	return nil
}

func under(dir string, roots []string) bool {
	for _, r := range roots {
		if dir == r || strings.HasPrefix(dir, r+"/") {
			return true
		}
	}
	return false
}

// roots applies the roots rule of the reachability table.
func (a *audit) roots() []token.Pos {
	var roots []token.Pos
	for _, d := range a.decls {
		if a.isRoot(d) {
			roots = append(roots, d.pos)
		}
	}
	return roots
}

func (a *audit) isRoot(d *decl) bool {
	switch {
	case under(d.dir, reachability.rootDirs):
		return true
	case d.test:
		return false
	case under(d.dir, reachability.apiDirs) && ast.IsExported(d.name):
		return true
	case d.recv != token.NoPos:
		return false
	}
	return d.name == "init" || d.name == "main" && a.dirs[path.Join(a.module, d.dir)].name == "main"
}

// reach returns the positions of every declaration the references lead
// to from the given ones.
func (a *audit) reach(from ...[]token.Pos) map[token.Pos]bool {
	var todo []token.Pos
	for _, f := range from {
		todo = append(todo, f...)
	}
	live := map[token.Pos]bool{}
	for len(todo) > 0 {
		p := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if live[p] {
			continue
		}
		live[p] = true
		if d := a.byPos[p]; d != nil {
			todo = append(todo, d.edges...)
		}
	}
	return live
}
