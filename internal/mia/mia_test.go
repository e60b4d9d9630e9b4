package mia

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gossipmia/internal/data"
	"gossipmia/internal/nn"
	"gossipmia/internal/tensor"
)

func TestMPEScoreBasics(t *testing.T) {
	// Confident correct prediction: near-zero entropy score.
	confident := tensor.Vector{0.999, 0.0005, 0.0005}
	low := MPEScore(confident, 0)
	// Confident wrong prediction: large score.
	high := MPEScore(confident, 1)
	if low >= high {
		t.Fatalf("confident-correct score %v should be below confident-wrong %v", low, high)
	}
	if low < 0 || high < 0 {
		t.Fatalf("MPE scores must be non-negative: %v %v", low, high)
	}
	// Uniform prediction sits in between.
	uniform := tensor.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3}
	mid := MPEScore(uniform, 0)
	if !(low < mid && mid < high) {
		t.Fatalf("ordering violated: %v, %v, %v", low, mid, high)
	}
}

// Property: MPE is finite and non-negative for any valid distribution.
func TestMPEScoreFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		p := rng.Dirichlet(6, 0.3)
		for y := 0; y < 6; y++ {
			s := MPEScore(p, y)
			if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMPEScoreSaturatedDistribution(t *testing.T) {
	// Exactly one-hot distributions must not produce Inf/NaN.
	p := tensor.Vector{1, 0, 0}
	for y := 0; y < 3; y++ {
		s := MPEScore(p, y)
		if math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("saturated MPE(y=%d) = %v", y, s)
		}
	}
}

// bestThreshold sorts the two sides on a fresh Scratch and sweeps them.
func bestThreshold(member, non []float64) (acc, tau float64, err error) {
	var s Scratch
	if err := s.sortScores(member, non); err != nil {
		return 0, 0, err
	}
	acc, tau = s.bestThresholdAccuracy()
	return acc, tau, nil
}

// tprAt sorts the two sides on a fresh Scratch and reads TPR@maxFPR.
func tprAt(member, non []float64, maxFPR float64) (float64, error) {
	var s Scratch
	if err := s.sortScores(member, non); err != nil {
		return 0, err
	}
	return s.tprAtFPR(maxFPR)
}

func TestBestThresholdAccuracySeparated(t *testing.T) {
	// Perfectly separated scores -> accuracy 1 at a threshold between.
	member := []float64{0.1, 0.2, 0.3}
	non := []float64{0.9, 1.0, 1.1}
	acc, tau, err := bestThreshold(member, non)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("separated accuracy = %v", acc)
	}
	if tau < 0.3 || tau >= 0.9 {
		t.Fatalf("threshold %v outside separating gap", tau)
	}
}

func TestBestThresholdAccuracyIndistinguishable(t *testing.T) {
	// Identical distributions -> accuracy 0.5.
	same := []float64{1, 2, 3, 4}
	acc, _, err := bestThreshold(same, same)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-0.5) > 1e-12 {
		t.Fatalf("identical-score accuracy = %v, want 0.5", acc)
	}
}

func TestBestThresholdAccuracyImbalanced(t *testing.T) {
	// Balanced weighting: 1 member vs 100 identical non-members must not
	// let the majority class dominate.
	member := []float64{0}
	non := make([]float64, 100)
	for i := range non {
		non[i] = 1
	}
	acc, _, err := bestThreshold(member, non)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("balanced accuracy = %v, want 1", acc)
	}
}

func TestBestThresholdAccuracyErrors(t *testing.T) {
	if _, _, err := bestThreshold(nil, []float64{1}); !errors.Is(err, ErrNoScores) {
		t.Fatalf("empty member error = %v", err)
	}
	if _, _, err := bestThreshold([]float64{1}, nil); !errors.Is(err, ErrNoScores) {
		t.Fatalf("empty non-member error = %v", err)
	}
}

// Property: accuracy is always in [0.5, 1].
func TestBestThresholdAccuracyRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		member := make([]float64, 20)
		non := make([]float64, 20)
		for i := range member {
			member[i] = rng.Normal(0, 1)
			non[i] = rng.Normal(0.5, 1)
		}
		acc, _, err := bestThreshold(member, non)
		if err != nil {
			return false
		}
		return acc >= 0.5-1e-12 && acc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTPRAtFPR(t *testing.T) {
	// 100 non-members at 1.0, members below: at FPR<=1% the threshold can
	// admit exactly 1 non-member.
	member := []float64{0.1, 0.2, 0.5, 2.0}
	non := make([]float64, 100)
	for i := range non {
		non[i] = float64(i) / 100 // 0.00..0.99
	}
	tpr, err := tprAt(member, non, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold = non[0] = 0.0 (1 allowed false positive): members <= 0.0
	// is none... wait: allowed=1, tau=non[0]=0.0 -> no member <= 0.
	if tpr != 0 {
		t.Fatalf("tpr = %v, want 0", tpr)
	}
	// With 50% FPR the threshold is 0.49 (50 admissible false positives:
	// scores 0.00..0.49), catching members 0.1 and 0.2 only.
	tpr, err = tprAt(member, non, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != 0.5 {
		t.Fatalf("tpr@50%%fpr = %v, want 0.5", tpr)
	}
	// FPR = 1 admits everything.
	tpr, err = tprAt(member, non, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != 1 {
		t.Fatalf("tpr@100%%fpr = %v, want 1", tpr)
	}
	// The threshold that admits every non-member is +Inf, and a member
	// scored +Inf is at or below it.
	tpr, err = tprAt([]float64{math.Inf(1), 0.5}, []float64{0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != 1 {
		t.Fatalf("tpr@100%%fpr with a member at +Inf = %v, want 1", tpr)
	}
	// A NaN score has no place among the thresholds.
	if _, err := tprAt([]float64{math.NaN(), 0.5}, []float64{0.1}, 1); !errors.Is(err, ErrNaNScore) {
		t.Fatalf("tpr with a NaN member: err = %v, want ErrNaNScore", err)
	}
	if _, err := tprAt([]float64{0.5}, []float64{0.1, math.NaN()}, 0); !errors.Is(err, ErrNaNScore) {
		t.Fatalf("tpr with a NaN non-member: err = %v, want ErrNaNScore", err)
	}
}

func TestTPRAtFPRSeparated(t *testing.T) {
	member := []float64{0.1, 0.2}
	non := []float64{10, 11, 12}
	tpr, err := tprAt(member, non, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != 1 {
		t.Fatalf("separated tpr@0fpr = %v, want 1", tpr)
	}
}

func TestTPRAtFPRTiesRespectBudget(t *testing.T) {
	// All non-members share one score; any threshold at that score would
	// have FPR=1, so with maxFPR=0.1 the threshold must drop below it.
	member := []float64{5, 5, 5}
	non := []float64{5, 5, 5, 5}
	tpr, err := tprAt(member, non, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != 0 {
		t.Fatalf("tied tpr = %v, want 0", tpr)
	}
}

func TestTPRAtFPRValidation(t *testing.T) {
	if _, err := tprAt(nil, []float64{1}, 0.01); !errors.Is(err, ErrNoScores) {
		t.Fatalf("empty member error = %v", err)
	}
	if _, err := tprAt([]float64{1}, []float64{1}, 2); err == nil {
		t.Fatal("maxFPR out of range accepted")
	}
}

// trainOverfitModel trains a model on a tiny dataset until it memorizes.
func trainOverfitModel(t *testing.T) (*nn.MLP, data.NodeData) {
	t.Helper()
	rng := tensor.NewRNG(17)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 10, Classes: 4, Margin: 1.2, Noise: 1.0, LabelNoise: 0.15,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	train := gen.Sample(32, rng)
	test := gen.Sample(64, rng)
	model, err := nn.NewMLP([]int{10, 48, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr := nn.NewTrainer(model, nn.NewSGD(nn.SGDConfig{LR: 0.08}), 8, 1)
	for e := 0; e < 150; e++ {
		if _, err := tr.RunEpochs(train.X, train.Y, rng); err != nil {
			t.Fatal(err)
		}
	}
	return model, data.NodeData{Train: train, Test: test}
}

func TestAttackNodeDetectsOverfitting(t *testing.T) {
	model, nd := trainOverfitModel(t)
	res, err := AttackNode(model, nd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.65 {
		t.Fatalf("attack accuracy on memorized model = %v, want > 0.65", res.Accuracy)
	}
	if res.TPRAt1FPR < 0 || res.TPRAt1FPR > 1 {
		t.Fatalf("tpr out of range: %v", res.TPRAt1FPR)
	}
}

func TestAttackNodeNearChanceOnFreshModel(t *testing.T) {
	rng := tensor.NewRNG(23)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 10, Classes: 4, Margin: 2, Noise: 1,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd := data.NodeData{Train: gen.Sample(64, rng), Test: gen.Sample(64, rng)}
	model, err := nn.NewMLP([]int{10, 16, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AttackNode(model, nd)
	if err != nil {
		t.Fatal(err)
	}
	// An untrained model carries no membership signal; allow sampling
	// slack above the 0.5 floor.
	if res.Accuracy > 0.68 {
		t.Fatalf("untrained model attack accuracy = %v, want near 0.5", res.Accuracy)
	}
}

func TestPlantCanaries(t *testing.T) {
	rng := tensor.NewRNG(31)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 6, Classes: 3, Margin: 2, Noise: 0.5,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := gen.Sample(200, rng)
	parts, err := data.PartitionIID(base, 4, 20, 10, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	beforeSizes := make([]int, 4)
	for i, p := range parts {
		beforeSizes[i] = p.Train.Len()
	}
	set, err := PlantCanaries(parts, gen, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	if set.HeldOut.Len() != 12 {
		t.Fatalf("held-out size = %d, want 12", set.HeldOut.Len())
	}
	totalPlanted := 0
	for i, p := range parts {
		planted := p.Train.Len() - beforeSizes[i]
		if planted != set.PerNode[i].Len() {
			t.Fatalf("node %d planted %d but recorded %d", i, planted, set.PerNode[i].Len())
		}
		if planted != 3 { // 12 canaries over 4 nodes
			t.Fatalf("node %d got %d canaries, want 3", i, planted)
		}
		totalPlanted += planted
	}
	if totalPlanted != 12 {
		t.Fatalf("planted %d canaries, want 12", totalPlanted)
	}
	if _, err := PlantCanaries(parts, gen, 2, rng); !errors.Is(err, ErrCanary) {
		t.Fatalf("too-few canaries error = %v", err)
	}
	if _, err := PlantCanaries(nil, gen, 2, rng); !errors.Is(err, ErrCanary) {
		t.Fatalf("no nodes error = %v", err)
	}
}

func TestCanaryAuditDetectsMemorization(t *testing.T) {
	rng := tensor.NewRNG(41)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 6, Classes: 3, Margin: 2.5, Noise: 0.6,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := gen.Sample(200, rng)
	parts, err := data.PartitionIID(base, 2, 16, 8, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := PlantCanaries(parts, gen, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Memorize node 0's training set (canaries included).
	model, err := nn.NewMLP([]int{6, 64, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr := nn.NewTrainer(model, nn.NewSGD(nn.SGDConfig{LR: 0.1}), 8, 1)
	for e := 0; e < 250; e++ {
		if _, err := tr.RunEpochs(parts[0].Train.X, parts[0].Train.Y, rng); err != nil {
			t.Fatal(err)
		}
	}
	var s Scratch
	tpr, err := set.NodeTPR(&s, 0, model)
	if err != nil {
		t.Fatal(err)
	}
	if tpr < 0.5 {
		t.Fatalf("canary TPR on memorized model = %v, want >= 0.5", tpr)
	}
	// A fresh model should not expose the canaries.
	fresh, err := nn.NewMLP([]int{6, 64, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	freshTPR, err := set.NodeTPR(&s, 0, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if freshTPR >= tpr {
		t.Fatalf("fresh model TPR %v should be below memorized %v", freshTPR, tpr)
	}
	// The scratch keeps no state from one audit to the next.
	if again, err := set.NodeTPR(&s, 0, model); err != nil || again != tpr {
		t.Fatalf("node 0 audited again through the same scratch: %v, %v; first %v", again, err, tpr)
	}
	// MaxTPRWorkers validates the model and scratch counts.
	scratch := make([]Scratch, 2)
	if _, err := set.MaxTPRWorkers([]*nn.MLP{model}, scratch, 1); !errors.Is(err, ErrCanary) {
		t.Fatalf("model count error = %v", err)
	}
	if _, err := set.MaxTPRWorkers([]*nn.MLP{model, fresh}, scratch[:1], 1); !errors.Is(err, ErrCanary) {
		t.Fatalf("scratch count error = %v", err)
	}
	maxTPR, err := set.MaxTPRWorkers([]*nn.MLP{model, fresh}, scratch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if maxTPR < tpr {
		t.Fatalf("max TPR %v below node-0 TPR %v", maxTPR, tpr)
	}
	if _, err := set.NodeTPR(&s, 99, model); !errors.Is(err, ErrCanary) {
		t.Fatalf("node range error = %v", err)
	}
}

// MaxTPRWorkers takes the same maximum at one worker and at four, on
// fresh scratches and on scratches another audit has grown, and a
// node's audit allocates nothing once its scratch has grown.
func TestCanaryAuditWorkersAndAllocs(t *testing.T) {
	rng := tensor.NewRNG(43)
	gen, err := data.NewGaussianGenerator(data.GaussianConfig{
		Dim: 6, Classes: 3, Margin: 2.5, Noise: 0.6,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.PartitionIID(gen.Sample(300, rng), 6, 16, 8, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := PlantCanaries(parts, gen, 90, rng)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*nn.MLP, len(parts))
	for i, p := range parts {
		if models[i], err = nn.NewMLP([]int{6, 32, 3}, rng); err != nil {
			t.Fatal(err)
		}
		tr := nn.NewTrainer(models[i], nn.NewSGD(nn.SGDConfig{LR: 0.1}), 8, 1)
		for e := 0; e < 20*i; e++ { // node i trains 20·i epochs: the TPRs differ
			if _, err := tr.RunEpochs(p.Train.X, p.Train.Y, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial, err := set.MaxTPRWorkers(models, make([]Scratch, len(models)), 1)
	if err != nil {
		t.Fatal(err)
	}
	grown := make([]Scratch, len(models))
	for i := range grown {
		// Grow each scratch on a wider split than the canaries first.
		if _, err := grown[len(grown)-1-i].AttackNode(models[i], parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, scratch := range [][]Scratch{make([]Scratch, len(models)), grown} {
		got, err := set.MaxTPRWorkers(models, scratch, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(serial) {
			t.Fatalf("max canary TPR at 4 workers %v, at 1 worker %v", got, serial)
		}
	}
	var s Scratch
	if _, err := set.NodeTPR(&s, 1, models[1]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := set.NodeTPR(&s, 1, models[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a canary audit through a grown scratch allocates %v times, want 0", allocs)
	}
}
