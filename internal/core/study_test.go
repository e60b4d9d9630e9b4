package core

import (
	"errors"
	"testing"

	"gossipmia/internal/data"
	"gossipmia/internal/gossip"
	"gossipmia/internal/metrics"
)

// quickConfig returns a fast arm used across the integration tests.
func quickConfig() StudyConfig {
	return StudyConfig{
		Label:    "test-arm",
		Corpus:   data.FashionMNIST,
		Protocol: "samo",
		Sim: gossip.Config{
			Nodes: 8, ViewSize: 3, Rounds: 6, Seed: 11,
		},
		Train: TrainConfig{
			Hidden: []int{16}, LR: 0.05, BatchSize: 10, LocalEpochs: 2,
		},
		Part:           PartitionConfig{TrainPerNode: 24, TestPerNode: 24},
		GlobalTestSize: 120,
		EvalEvery:      2,
	}
}

func TestStudyValidation(t *testing.T) {
	bad := quickConfig()
	bad.Train.LR = 0
	if _, err := NewStudy(bad); !errors.Is(err, ErrStudy) {
		t.Fatalf("lr=0 error = %v", err)
	}
	bad = quickConfig()
	bad.Part.TrainPerNode = 0
	if _, err := NewStudy(bad); !errors.Is(err, ErrStudy) {
		t.Fatalf("trainPer=0 error = %v", err)
	}
	bad = quickConfig()
	bad.DP = &DPConfig{Epsilon: -1, Delta: 1e-5, Clip: 1}
	if _, err := NewStudy(bad); !errors.Is(err, ErrStudy) {
		t.Fatalf("bad dp error = %v", err)
	}
}

func TestStudyRunProducesSeries(t *testing.T) {
	st, err := NewStudy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	// EvalEvery=2 over 6 rounds: rounds 1, 3, 5.
	if got := len(res.Series.Records); got != 3 {
		t.Fatalf("series has %d records, want 3", got)
	}
	for _, r := range res.Series.Records {
		if r.TestAcc < 0 || r.TestAcc > 1 {
			t.Fatalf("test acc out of range: %+v", r)
		}
		if r.MIAAcc < 0.5-1e-9 || r.MIAAcc > 1 {
			t.Fatalf("mia acc out of range: %+v", r)
		}
		if r.TPRAt1FPR < 0 || r.TPRAt1FPR > 1 {
			t.Fatalf("tpr out of range: %+v", r)
		}
	}
	if res.MessagesSent == 0 {
		t.Fatal("no messages recorded")
	}
	// Learning should beat the 10-class chance level by the last round.
	if last := res.Series.Last(); last.TestAcc < 0.2 {
		t.Fatalf("final test accuracy %v, want > 0.2", last.TestAcc)
	}
	if res.RealizedEpsilon != 0 || res.NoiseMultiplier != 0 {
		t.Fatal("non-DP run reported DP budget")
	}
}

func TestStudyDeterminism(t *testing.T) {
	run := func() *Result {
		st, err := NewStudy(quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Series.Records) != len(b.Series.Records) {
		t.Fatal("series lengths differ")
	}
	for i := range a.Series.Records {
		if a.Series.Records[i] != b.Series.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Series.Records[i], b.Series.Records[i])
		}
	}
	if a.MessagesSent != b.MessagesSent {
		t.Fatal("message counts differ")
	}
}

func TestStudyDPRun(t *testing.T) {
	cfg := quickConfig()
	cfg.Label = "dp-arm"
	cfg.Sim.Rounds = 4
	cfg.EvalEvery = 4
	cfg.DP = &DPConfig{Epsilon: 25, Delta: 1e-5, Clip: 1}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NoiseMultiplier <= 0 {
		t.Fatalf("noise multiplier = %v, want > 0", res.NoiseMultiplier)
	}
	if res.RealizedEpsilon <= 0 {
		t.Fatalf("realized epsilon = %v, want > 0", res.RealizedEpsilon)
	}
	// Base gossip triggers a local update per received model, so nodes
	// may take somewhat more steps than the calibration estimate; for
	// SAMO (merge once per wake) the realized budget must stay near the
	// target.
	if res.RealizedEpsilon > cfg.DP.Epsilon*1.5 {
		t.Fatalf("realized epsilon %v far above target %v", res.RealizedEpsilon, cfg.DP.Epsilon)
	}
}

func TestStudyDPReducesVulnerability(t *testing.T) {
	base := quickConfig()
	base.Sim.Rounds = 8
	base.EvalEvery = 8
	base.Train.LocalEpochs = 3
	base.Part.TrainPerNode = 16

	noDP, err := NewStudy(base)
	if err != nil {
		t.Fatal(err)
	}
	resNoDP, err := noDP.Run()
	if err != nil {
		t.Fatal(err)
	}

	dpCfg := base
	dpCfg.DP = &DPConfig{Epsilon: 5, Delta: 1e-5, Clip: 0.5}
	withDP, err := NewStudy(dpCfg)
	if err != nil {
		t.Fatal(err)
	}
	resDP, err := withDP.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resDP.Series.MaxMIAAcc() > resNoDP.Series.MaxMIAAcc()+0.05 {
		t.Fatalf("DP did not reduce MIA: dp %v vs none %v",
			resDP.Series.MaxMIAAcc(), resNoDP.Series.MaxMIAAcc())
	}
}

func TestStudyCanaryRun(t *testing.T) {
	cfg := quickConfig()
	cfg.Canaries = 16
	cfg.Sim.Rounds = 4
	cfg.EvalEvery = 2
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Series.Records {
		if r.TPRAt1FPR < 0 || r.TPRAt1FPR > 1 {
			t.Fatalf("canary TPR out of range: %+v", r)
		}
	}
}

func TestStudyDirichletRun(t *testing.T) {
	cfg := quickConfig()
	cfg.Part.DirichletBeta = 0.2
	cfg.Sim.Rounds = 4
	cfg.EvalEvery = 4
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Records) == 0 {
		t.Fatal("no records")
	}
}

func TestStudyEvalNodesSubset(t *testing.T) {
	cfg := quickConfig()
	cfg.EvalNodes = 3
	cfg.Sim.Rounds = 2
	cfg.EvalEvery = 1
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStudyBaseProtocolAndDynamic(t *testing.T) {
	cfg := quickConfig()
	cfg.Protocol = "base"
	cfg.Sim.Dynamics = gossip.DynamicsPeerSwap
	cfg.Sim.Rounds = 4
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Records) == 0 {
		t.Fatal("no records")
	}
}

func TestStudyUnknownProtocolAndCorpus(t *testing.T) {
	cfg := quickConfig()
	cfg.Protocol = "nope"
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	cfg = quickConfig()
	cfg.Corpus = "nope"
	st, err = NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err == nil {
		t.Fatal("unknown corpus accepted")
	}
}

// TestStudyOnRecordStreamsRounds proves the observer hook: every
// evaluated record reaches OnRecord in round order, identical to what
// the retained series collects.
func TestStudyOnRecordStreamsRounds(t *testing.T) {
	var streamed []metrics.RoundRecord
	cfg := quickConfig()
	cfg.OnRecord = func(r metrics.RoundRecord) error {
		streamed = append(streamed, r)
		return nil
	}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Series.Records) {
		t.Fatalf("streamed %d records, series has %d", len(streamed), len(res.Series.Records))
	}
	for i, r := range streamed {
		if r != res.Series.Records[i] {
			t.Fatalf("streamed record %d = %+v, series has %+v", i, r, res.Series.Records[i])
		}
		if i > 0 && r.Round <= streamed[i-1].Round {
			t.Fatalf("records out of round order: %+v", streamed)
		}
	}
}

// TestStudyOnRecordErrorAborts proves a failing sink aborts the run
// with its error.
func TestStudyOnRecordErrorAborts(t *testing.T) {
	boom := errors.New("sink full")
	cfg := quickConfig()
	cfg.OnRecord = func(metrics.RoundRecord) error { return boom }
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want the sink error", err)
	}
}

// TestOnFinalLendsFinalNodes: OnFinal runs exactly once, after the last
// round's record, with every node in ID order, and the lent models
// score on the lent data — on the pooled arena every arm runs on.
func TestOnFinalLendsFinalNodes(t *testing.T) {
	cfg := quickConfig()
	var records, calls int
	cfg.OnRecord = func(metrics.RoundRecord) error {
		if calls > 0 {
			t.Error("a record arrived after OnFinal")
		}
		records++
		return nil
	}
	cfg.OnFinal = func(nodes []*gossip.Node) error {
		calls++
		if records != cfg.Sim.Rounds/cfg.EvalEvery {
			t.Errorf("OnFinal after %d records, want %d", records, cfg.Sim.Rounds/cfg.EvalEvery)
		}
		if len(nodes) != cfg.Sim.Nodes {
			t.Fatalf("%d nodes, want %d", len(nodes), cfg.Sim.Nodes)
		}
		for i, node := range nodes {
			if node.ID != i {
				t.Fatalf("node %d has ID %d", i, node.ID)
			}
			acc, err := metrics.Accuracy(node.Model, node.Data.Test)
			if err != nil || acc <= 0 || acc > 1 {
				t.Fatalf("node %d: test accuracy %v, %v", i, acc, err)
			}
		}
		return nil
	}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnFinal called %d times, want 1", calls)
	}
}

// TestOnFinalErrorFailsRun: an error from OnFinal fails the run,
// wrapped, with no result.
func TestOnFinalErrorFailsRun(t *testing.T) {
	boom := errors.New("analysis failed")
	cfg := quickConfig()
	cfg.OnFinal = func([]*gossip.Node) error { return boom }
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Run(); !errors.Is(err, boom) || res != nil {
		t.Fatalf("run = %v, %v; want no result and the OnFinal error", res, err)
	}
}

// TestPurchase100RowsCarryLists: every row a Purchase100-like arm's
// nodes train and are attacked on comes with its list of ones, through
// the IID partition with canaries planted and through the Dirichlet
// one. A row without a list would only run dense — the same bits — so
// only this test sees the sparse first layer fall out of use.
func TestPurchase100RowsCarryLists(t *testing.T) {
	for _, edit := range []func(*StudyConfig){
		func(c *StudyConfig) { c.Canaries = 8 },
		func(c *StudyConfig) { c.Part.DirichletBeta = 0.5 },
	} {
		cfg := quickConfig()
		cfg.Corpus, cfg.Sim.Rounds = data.Purchase100, 1
		edit(&cfg)
		checked := 0
		cfg.OnFinal = func(nodes []*gossip.Node) error {
			for _, node := range nodes {
				for _, ds := range []*data.Dataset{node.Data.Train, node.Data.Test} {
					if ds.NZ == nil || len(ds.NZ) != ds.Len() {
						t.Fatalf("canaries %d, beta %v: node %d has %d lists for %d rows", cfg.Canaries, cfg.Part.DirichletBeta, node.ID, len(ds.NZ), ds.Len())
					}
					if err := ds.Validate(); err != nil {
						t.Fatalf("canaries %d, beta %v: node %d: %v", cfg.Canaries, cfg.Part.DirichletBeta, node.ID, err)
					}
				}
				checked++
			}
			return nil
		}
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if checked != cfg.Sim.Nodes {
			t.Fatalf("checked %d nodes, want %d", checked, cfg.Sim.Nodes)
		}
	}
}
