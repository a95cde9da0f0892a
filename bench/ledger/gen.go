package main

// Workload inputs. Everything a run sends to the system under test is built
// here from the seed alone: the same seed yields the same op order, the same
// arrival times and the same fresh shapes.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/network"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// archPreset is the architecture every workload runs on.
const archPreset = "casestudy"

func caseStudy() (*arch.Arch, loops.Nest) { return arch.CaseStudy(), arch.CaseStudySpatial() }

// netNames are the op classes of net-cold and net-warm.
var netNames = []string{"resnet18", "mobilenetv2", "gpt2-prefill", "gpt2-decode"}

// buildNetwork returns one of netNames as a network.
func buildNetwork(name string) (*network.Network, error) {
	switch name {
	case "resnet18":
		return &network.Network{Name: name, Layers: workload.ResNet18Suite()}, nil
	case "mobilenetv2":
		return &network.Network{Name: name, Layers: workload.MobileNetV2Suite()}, nil
	case "gpt2-prefill", "gpt2-decode":
		_, n, err := (&transformer.Spec{Preset: "gpt2", Mode: strings.TrimPrefix(name, "gpt2-")}).Build()
		return n, err
	}
	return nil, fmt.Errorf("unknown network %q", name)
}

// fabricProblem is one of fabric-2node's two alternating searches.
type fabricProblem struct {
	name   string
	layer  workload.Layer
	budget int
}

// fabricProblems: the uncapped 128³ matmul whose ~19.5k-ordering walk fits
// the budget, and the capped 3×3 conv whose walk is cut at the budget inside
// one large block multiset (the case that inflates sharded work).
func fabricProblems() []fabricProblem {
	return []fabricProblem{
		{"matmul128", workload.NewMatMul("matmul128", 128, 128, 128), 50_000},
		{"conv3x3-capped", workload.NewConv2D("conv3x3-capped", 1, 128, 128, 14, 14, 3, 3), 50_000},
	}
}

// serve-mix request shapes. Single-layer searches are 3×3 convolutions from
// one grid, so hot and fresh searches cost the same when both miss. Network
// requests are GPT-2 decode blocks: the context length sets the attention
// shapes, so a fresh length is two fresh searches beside the projections
// every decode block shares.
const (
	searchBudget = 2000
	seqLo, seqHi = 64, 1024
)

// gridKC holds the channel counts K and C of single-layer searches, all on
// a 7×7 output: over this grid a cold search costs 5–15 ms, so which fresh
// shapes a seed draws barely moves the fresh-search latency class.
var gridKC = func() []int64 {
	var g []int64
	for v := int64(16); v <= 128; v += 2 {
		g = append(g, v)
	}
	return g
}()

// hotConvs are the hot single-layer searches (K, C), warmed in set-up so
// every later request for them is a memo hit.
var hotConvs = [][2]int64{
	{32, 32}, {64, 64}, {64, 32}, {128, 64}, {48, 96}, {96, 48}, {128, 128}, {16, 64},
}

// hotSeqs are the hot network requests' context lengths.
var hotSeqs = []int64{128, 512}

func convLayer(s [2]int64) workload.Layer {
	return workload.NewConv2D(fmt.Sprintf("conv3x3-k%d-c%d", s[0], s[1]), 1, s[0], s[1], 7, 7, 3, 3)
}

func gpt2Spec(seq int64) *transformer.Spec {
	return &transformer.Spec{Preset: "gpt2", Mode: "decode", SeqLen: seq}
}

// opKind classifies a serve-mix request.
type opKind int

const (
	hotSearch opKind = iota
	freshSearch
	hotNet
	freshNet
)

func (k opKind) String() string {
	return [...]string{"hot-search", "fresh-search", "hot-network", "fresh-network"}[k]
}

// mixBlock is the stratified unit of the serve-mix stream: every block of 20
// requests holds exactly this many of each kind, in a seeded order. 80% are
// searches and 20% networks; of each, 75% repeat the hot set. Fixed shares
// keep the hit ratio stationary and put the pooled median inside the hit
// class and p90 inside the fresh-search class, away from class boundaries.
var mixBlock = [...]int{hotSearch: 12, freshSearch: 4, hotNet: 3, freshNet: 1}

// mixOp is one scheduled serve-mix request.
type mixOp struct {
	stage int
	due   time.Duration // since the schedule's origin
	kind  opKind
	hot   int      // index into hotConvs / hotSeqs for hot kinds
	conv  [2]int64 // search shape (K, C)
	seq   int64    // network sequence length
}

// freshShapes draws shapes never drawn before and never in the hot set.
type freshShapes struct {
	rng   *rand.Rand
	convs map[[2]int64]bool
	seqs  map[int64]bool
}

func newFreshShapes(rng *rand.Rand) *freshShapes {
	f := &freshShapes{rng: rng, convs: map[[2]int64]bool{}, seqs: map[int64]bool{}}
	for _, c := range hotConvs {
		f.convs[c] = true
	}
	for _, s := range hotSeqs {
		f.seqs[s] = true
	}
	return f
}

func (f *freshShapes) conv() ([2]int64, error) {
	if len(f.convs) >= len(gridKC)*len(gridKC) {
		return [2]int64{}, fmt.Errorf("fresh conv grid exhausted after %d shapes", len(f.convs))
	}
	for {
		c := [2]int64{gridKC[f.rng.Intn(len(gridKC))], gridKC[f.rng.Intn(len(gridKC))]}
		if !f.convs[c] {
			f.convs[c] = true
			return c, nil
		}
	}
}

func (f *freshShapes) seq() (int64, error) {
	if len(f.seqs) >= seqHi-seqLo+1 {
		return 0, fmt.Errorf("fresh sequence lengths exhausted after %d", len(f.seqs))
	}
	for {
		s := seqLo + f.rng.Int63n(seqHi-seqLo+1)
		if !f.seqs[s] {
			f.seqs[s] = true
			return s, nil
		}
	}
}

// stage is one step of serve-mix's rate ladder.
type stage struct {
	rate float64       // arrivals per second
	dur  time.Duration // length
}

// schedule builds the serve-mix stream: the stages back to back, each with
// seeded exponential inter-arrival times (a Poisson process) and kinds
// drawn from shuffled mixBlocks.
func schedule(seed int64, stages []stage) ([]mixOp, error) {
	rng := rand.New(rand.NewSource(seed))
	fresh := newFreshShapes(rng)
	var out []mixOp
	var origin time.Duration
	for s, st := range stages {
		var block []opKind
		t := 0.0
		for {
			t += rng.ExpFloat64() / st.rate
			due := time.Duration(t * float64(time.Second))
			if due >= st.dur {
				break
			}
			if len(block) == 0 {
				for k, n := range mixBlock {
					for range n {
						block = append(block, opKind(k))
					}
				}
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
			op := mixOp{stage: s, due: origin + due, kind: block[0]}
			block = block[1:]
			var err error
			switch op.kind {
			case hotSearch:
				op.hot = rng.Intn(len(hotConvs))
				op.conv = hotConvs[op.hot]
			case hotNet:
				op.hot = rng.Intn(len(hotSeqs))
				op.seq = hotSeqs[op.hot]
			case freshSearch:
				op.conv, err = fresh.conv()
			case freshNet:
				op.seq, err = fresh.seq()
			}
			if err != nil {
				return nil, err
			}
			out = append(out, op)
		}
		origin += st.dur
	}
	return out, nil
}
