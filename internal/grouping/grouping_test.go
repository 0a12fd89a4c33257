package grouping

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/kmeans"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/vecmath"
	"dtmsvs/internal/video"
)

func testConfig() Config {
	return Config{
		WindowSteps: 16, PosScale: 2000,
		KMin: 2, KMax: 5,
		UseCNN: true,
	}
}

// makeTwins builds n twins split into two behavioral clusters:
// high-CQI static heavy watchers near (100,100) vs low-CQI mobile
// light watchers near (1900,1900).
func makeTwins(t *testing.T, n int) []*udt.Twin {
	t.Helper()
	twins := make([]*udt.Twin, n)
	for i := range twins {
		tw, err := udt.NewTwin(i, udt.Config{
			ChannelEvery: 1, LocationEvery: 1, WatchEvery: 1, PreferenceEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		clusterA := i < n/2
		for tick := 0; tick < 32; tick++ {
			tw.Tick()
			if clusterA {
				if _, err := tw.CollectChannel(13 + tick%3); err != nil {
					t.Fatal(err)
				}
				tw.CollectLocation(100+float64(tick), 100)
				if _, err := tw.CollectView(video.News, 40, 0.8, false); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := tw.CollectChannel(1 + tick%3); err != nil {
					t.Fatal(err)
				}
				tw.CollectLocation(1900-10*float64(tick), 1900)
				if _, err := tw.CollectView(video.Game, 5, 0.1, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		twins[i] = tw
	}
	return twins
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"window", func(c *Config) { c.WindowSteps = 0 }},
		{"posscale", func(c *Config) { c.PosScale = 0 }},
		{"kmin", func(c *Config) { c.KMin = 0 }},
		{"krange", func(c *Config) { c.KMin = 5; c.KMax = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mut(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.KMax = 0
	cfg.KMin = 0
	if _, err := New(cfg, rand.New(rand.NewSource(1))); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestWindowsAndCodes(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Windows(nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	twins := makeTwins(t, 10)
	windows, err := b.Windows(twins)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 10 || len(windows[0]) != udt.NumFeatureChannels*16 {
		t.Fatalf("windows %d × %d", len(windows), len(windows[0]))
	}
	codes, err := b.Codes(twins)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 10 || len(codes[0]) != 8 {
		t.Fatalf("codes %d × %d (default CodeDim 8)", len(codes), len(codes[0]))
	}
}

func TestCodesRawWhenCNNDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.UseCNN = false
	b, err := New(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 6)
	codes, err := b.Codes(twins)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes[0]) != udt.NumFeatureChannels*16 {
		t.Fatalf("raw codes dim %d", len(codes[0]))
	}
	// TrainCompressor must be a no-op.
	loss, err := b.TrainCompressor(twins, 5)
	if err != nil || loss != 0 {
		t.Fatalf("no-CNN TrainCompressor: %v, %v", loss, err)
	}
}

// TestCodesIntoMatchesCodes: CodesInto stages and encodes its twins a
// compressor batch at a time, and every row equals that twin's Codes
// entry bit for bit — with the CNN on, over 17 twins (two full batches
// of 8 and a tail), and with it off, where a code is the raw window.
// Into a grown matrix it allocates nothing.
func TestCodesIntoMatchesCodes(t *testing.T) {
	twins := makeTwins(t, 17)
	for _, cnn := range []bool{true, false} {
		cfg := testConfig()
		cfg.UseCNN = cnn
		b, err := New(cfg, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.TrainCompressor(twins, 2); err != nil {
			t.Fatal(err)
		}
		codes, err := b.Codes(twins)
		if err != nil {
			t.Fatal(err)
		}
		var dst vecmath.Matrix
		if err := b.CodesInto(&dst, twins); err != nil {
			t.Fatal(err)
		}
		if dst.Rows != len(codes) || dst.Cols != len(codes[0]) {
			t.Fatalf("cnn %v: CodesInto %dx%d, Codes %dx%d", cnn, dst.Rows, dst.Cols, len(codes), len(codes[0]))
		}
		for i, code := range codes {
			for j, v := range code {
				if math.Float64bits(dst.At(i, j)) != math.Float64bits(v) {
					t.Fatalf("cnn %v twin %d code %d: CodesInto %v, Codes %v", cnn, i, j, dst.At(i, j), v)
				}
			}
		}
		if a := testing.AllocsPerRun(10, func() {
			if err := b.CodesInto(&dst, twins); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("cnn %v: CodesInto allocates %v times", cnn, a)
		}
		if err := b.CodesInto(&dst, nil); !errors.Is(err, ErrConfig) {
			t.Fatalf("cnn %v: no twins: want ErrConfig, got %v", cnn, err)
		}
	}
}

func TestTrainCompressorReducesLoss(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 16)
	first, err := b.TrainCompressor(twins, 1)
	if err != nil {
		t.Fatal(err)
	}
	last, err := b.TrainCompressor(twins, 30)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("compressor loss did not drop: %v -> %v", first, last)
	}
}

func TestBuildPartition(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 20)
	if _, err := b.TrainCompressor(twins, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := b.TrainAgent(twins, 60); err != nil {
		t.Fatal(err)
	}
	res, err := b.Build(twins)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 || res.K > 5 {
		t.Fatalf("K=%d outside [2,5]", res.K)
	}
	if len(res.Groups) != res.K {
		t.Fatalf("%d groups for K=%d", len(res.Groups), res.K)
	}
	seen := make(map[int]bool)
	for _, g := range res.Groups {
		for _, m := range g.Members {
			if seen[m] {
				t.Fatalf("user %d in two groups", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("partition covers %d of 20 users", len(seen))
	}
	for u, g := range res.Assignments(21) {
		if (g < 0) != (u == 20) {
			t.Fatalf("user %d in group %d", u, g)
		}
	}
}

func TestBuildSeparatesBehavioralClusters(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 24)
	if _, err := b.TrainCompressor(twins, 40); err != nil {
		t.Fatal(err)
	}
	res, err := b.BuildFixedK(twins, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Users 0..11 (cluster A) must all land together, as must 12..23.
	assign := res.Assignments(24)
	gA := assign[0]
	for u := 1; u < 12; u++ {
		if assign[u] != gA {
			t.Fatalf("cluster A split: user %d in %d, want %d", u, assign[u], gA)
		}
	}
	gB := assign[12]
	if gB == gA {
		t.Fatal("clusters merged")
	}
	for u := 13; u < 24; u++ {
		if assign[u] != gB {
			t.Fatalf("cluster B split: user %d", u)
		}
	}
	if sil := res.Silhouette(); sil < 0.5 {
		t.Fatalf("silhouette %v too low for separated clusters", sil)
	}
}

// stagedSilhouette scores a clustering of codes on a freshly staged
// kmeans.DistMatrix.
func stagedSilhouette(codes []vecmath.Vec, assign []int, k int, pool *parallel.Pool) (float64, error) {
	var m kmeans.DistMatrix
	if err := m.Stage(codes); err != nil {
		return 0, err
	}
	return kmeans.SilhouetteDists(&m, assign, k, pool)
}

// TestSilhouetteMatchesSilhouettePool scores Build and BuildFixedK
// results through the memoised Silhouette and checks each against the
// silhouette of the same codes and assignment on a freshly staged set,
// bit for bit, at pool widths 1 and 2.
func TestSilhouetteMatchesSilhouettePool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pool := parallel.New(workers)
		b, err := New(testConfig(), rand.New(rand.NewSource(20)))
		if err != nil {
			t.Fatal(err)
		}
		b.SetPool(pool)
		twins := makeTwins(t, 30)
		if _, err := b.TrainCompressor(twins, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := b.TrainAgent(twins, 40); err != nil {
			t.Fatal(err)
		}
		built, err := b.Build(twins)
		if err != nil {
			t.Fatal(err)
		}
		results := []*Result{built}
		for _, k := range []int{2, 3, 5} {
			res, err := b.BuildFixedK(twins, k)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		for _, res := range results {
			want, err := stagedSilhouette(res.Codes, res.Assignments(len(twins)), res.K, pool)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Silhouette()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("workers %d K=%d: silhouette %v, freshly staged %v", workers, res.K, got, want)
			}
			var again float64
			if allocs := testing.AllocsPerRun(10, func() { again = res.Silhouette() }); allocs != 0 {
				t.Fatalf("workers %d K=%d: repeated Silhouette allocates %v times", workers, res.K, allocs)
			}
			if math.Float64bits(again) != math.Float64bits(got) {
				t.Fatalf("workers %d K=%d: second call %v, first %v", workers, res.K, again, got)
			}
		}
	}
}

func TestSilhouetteSingleGroupIsZero(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.BuildFixedK(makeTwins(t, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sil := res.Silhouette(); math.Float64bits(sil) != 0 {
		t.Fatalf("K=1 silhouette %v, want 0", sil)
	}
}

func TestRestoredResultSilhouette(t *testing.T) {
	for _, v := range []float64{0, 0.6180339887498949, -0.25, math.SmallestNonzeroFloat64} {
		if got := RestoredResult(v).Silhouette(); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("restored %v, want %v", got, v)
		}
	}
}

// TestAssembleRejectsMalformedClustering feeds assemble every input
// kmeans.DistMatrix.Stage or kmeans.SilhouetteDists rejects: the build
// fails, so no result can carry a silhouette scan that would.
func TestAssembleRejectsMalformedClustering(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	codes := []vecmath.Vec{{0, 0}, {1, 1}, {5, 5}}
	centroids := []vecmath.Vec{{0.5, 0.5}, {5, 5}}
	tests := []struct {
		name  string
		codes []vecmath.Vec
		res   kmeans.Result
	}{
		{"no codes", nil, kmeans.Result{K: 2, Centroids: centroids}},
		{"short assignment", codes, kmeans.Result{K: 2, Centroids: centroids, Assign: []int{0, 0}}},
		{"ragged codes", []vecmath.Vec{{0, 0}, {1}, {5, 5}}, kmeans.Result{K: 2, Centroids: centroids, Assign: []int{0, 0, 1}}},
		{"negative group", codes, kmeans.Result{K: 2, Centroids: centroids, Assign: []int{0, -1, 1}}},
		{"group past K", codes, kmeans.Result{K: 2, Centroids: centroids, Assign: []int{0, 0, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := stagedSilhouette(tt.codes, tt.res.Assign, tt.res.K, nil); !errors.Is(err, kmeans.ErrInput) {
				t.Fatalf("the silhouette scan accepts the input: %v", err)
			}
			if _, err := b.assemble(tt.codes, &tt.res); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
	res, err := b.assemble(codes, &kmeans.Result{K: 2, Centroids: centroids, Assign: []int{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := stagedSilhouette(codes, []int{0, 0, 1}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Silhouette(); got != want {
		t.Fatalf("well-formed clustering: silhouette %v, want %v", got, want)
	}
}

func TestBuildFixedKValidation(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 4)
	if _, err := b.BuildFixedK(twins, 10); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestSelectKInRange(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 12)
	codes, err := b.Codes(twins)
	if err != nil {
		t.Fatal(err)
	}
	k, err := b.SelectK(codes)
	if err != nil {
		t.Fatal(err)
	}
	if k < 2 || k > 5 {
		t.Fatalf("K=%d outside range", k)
	}
}

func TestBestKExhaustivePrefersTwoClusters(t *testing.T) {
	b, err := New(testConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 20)
	if _, err := b.TrainCompressor(twins, 40); err != nil {
		t.Fatal(err)
	}
	k, reward, err := b.BestKExhaustive(twins)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("oracle K=%d for two-cluster data, want 2", k)
	}
	if reward <= 0 {
		t.Fatalf("oracle reward %v", reward)
	}
}

func TestTrainedAgentApproachesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	b, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 20)
	if _, err := b.TrainCompressor(twins, 40); err != nil {
		t.Fatal(err)
	}
	oracleK, _, err := b.BestKExhaustive(twins)
	if err != nil {
		t.Fatal(err)
	}
	rewards, err := b.TrainAgent(twins, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rewards) != 200 {
		t.Fatalf("%d episode rewards", len(rewards))
	}
	codes, err := b.Codes(twins)
	if err != nil {
		t.Fatal(err)
	}
	k, err := b.SelectK(codes)
	if err != nil {
		t.Fatal(err)
	}
	if k != oracleK {
		t.Fatalf("trained agent K=%d, oracle %d", k, oracleK)
	}
}

// TestRepeatedKIsFree: within one training env, the first episode that
// picks a K runs K-means++ (and so draws from the builder's stream);
// every later one returns the identical reward without a draw.
func TestRepeatedKIsFree(t *testing.T) {
	src := parallel.NewCounting(rand.NewSource(13).(rand.Source64))
	b, err := New(testConfig(), rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	twins := makeTwins(t, 20)
	if _, err := b.TrainCompressor(twins, 5); err != nil {
		t.Fatal(err)
	}
	env, err := b.newKEnv(twins)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.Config()
	for action := 0; action <= cfg.KMax-cfg.KMin; action++ {
		before := src.Draws()
		_, first, _, err := env.Step(action)
		if err != nil {
			t.Fatal(err)
		}
		scored := src.Draws()
		if scored == before {
			t.Fatalf("action %d: first evaluation drew nothing", action)
		}
		_, again, _, err := env.Step(action)
		if err != nil {
			t.Fatal(err)
		}
		if d := src.Draws() - scored; d != 0 {
			t.Fatalf("action %d: repeated evaluation drew %d values", action, d)
		}
		if math.Float64bits(again) != math.Float64bits(first) {
			t.Fatalf("action %d: reward %v, then %v", action, first, again)
		}
	}
}

func TestEnvStateShape(t *testing.T) {
	codes := []vecmath.Vec{{1, 2}, {3, 4}, {5, 6}}
	st, err := envState(codes)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != StateDim {
		t.Fatalf("state dim %d, want %d", len(st), StateDim)
	}
	if _, err := envState(nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestRandIndex(t *testing.T) {
	if _, err := RandIndex([]int{1}, []int{1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	if _, err := RandIndex([]int{1, 2}, []int{1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	// Identical partitions (up to label permutation) → 1.
	ri, err := RandIndex([]int{0, 0, 1, 1}, []int{1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ri != 1 {
		t.Fatalf("permuted identical partitions: %v", ri)
	}
	// Fully merged vs fully split → 0 agreement.
	ri, err = RandIndex([]int{0, 0, 0}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if ri != 0 {
		t.Fatalf("opposite partitions: %v", ri)
	}
	// One user moved in a 2+2 split: pairs (0,1), (0,3) and (1,3)
	// agree, the three pairs involving the mover's old relations do
	// not — 3 of 6.
	ri, err = RandIndex([]int{0, 0, 1, 1}, []int{0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ri-0.5) > 1e-12 {
		t.Fatalf("rand index %v, want 0.5", ri)
	}
}

// randIndexPairs is the pair-loop definition RandIndex counts from a
// contingency table.
func randIndexPairs(a, b []int) float64 {
	var agree, total float64
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			if (a[i] == a[j]) == (b[i] == b[j]) {
				agree++
			}
			total++
		}
	}
	return agree / total
}

func TestRandIndexMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	label := func(k int) int { return rng.Intn(k+1) - 1 } // −1 is "ungrouped"
	for n := 2; n <= 600; n++ {
		ka, kb := 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i], b[i] = label(ka), label(kb)
		}
		if n%3 == 0 {
			// A regroup that moves a few users keeps most pairs.
			copy(b, a)
			for m := 0; m < 1+n/20; m++ {
				b[rng.Intn(n)] = label(ka)
			}
		}
		got, err := RandIndex(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := randIndexPairs(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: rand index %v, pair loop %v", n, got, want)
		}
	}
}

func TestAssignments(t *testing.T) {
	res := &Result{Groups: []Group{
		{ID: 0, Members: []int{0, 2}},
		{ID: 1, Members: []int{1}},
	}}
	a := res.Assignments(4)
	want := []int{0, 1, 0, -1}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("assignments %v, want %v", a, want)
		}
	}
}

// TestBuilderStateRoundTrip: a builder's weights decode into a second
// builder of the same configuration, which re-encodes them to the same
// bytes; a builder whose configuration disagrees about the compressor
// refuses them as corrupt, in either direction.
func TestBuilderStateRoundTrip(t *testing.T) {
	build := func(useCNN bool, seed int64) *Builder {
		cfg := testConfig()
		cfg.UseCNN = useCNN
		b, err := New(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	state := func(b *Builder) []byte {
		var e checkpoint.Enc
		b.EncodeState(&e)
		return e.Bytes()
	}
	src, dst := build(true, 1), build(true, 2)
	d := checkpoint.NewDec(state(src))
	if err := dst.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state(dst), state(src)) {
		t.Fatal("encode → decode → encode changed the bytes")
	}
	raw := build(false, 3)
	if err := raw.DecodeState(checkpoint.NewDec(state(src))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("compressor weights into a raw builder: want checkpoint.ErrCorrupt, got %v", err)
	}
	if err := dst.DecodeState(checkpoint.NewDec(state(raw))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("raw weights into a CNN builder: want checkpoint.ErrCorrupt, got %v", err)
	}
}

// TestTrainAgentMemory guards the reward table's footprint: one
// TrainAgent over 2000 codes, the learn_mono benchmark workload's
// population, at its K range and episode count, allocates under 8 MB in
// all. Each K's silhouette computes its distances from the staged codes
// (n·d floats); an n×n distance matrix alone would be 32 MB.
func TestTrainAgentMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a compressor over 2000 twins")
	}
	twins := makeTwins(t, 2000)
	cfg := testConfig()
	cfg.KMax = 8
	b, err := New(cfg, rand.New(rand.NewSource(52)))
	if err != nil {
		t.Fatal(err)
	}
	b.SetPool(parallel.New(2))
	if _, err := b.TrainCompressor(twins, 2); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := b.TrainAgent(twins, 150); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("TrainAgent allocated %.2f MB", float64(got)/(1<<20))
	if got >= 8<<20 {
		t.Fatalf("TrainAgent over %d codes allocated %.1f MB, want < 8 MB", len(twins), float64(got)/(1<<20))
	}
}
