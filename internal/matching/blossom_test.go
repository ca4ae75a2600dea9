package matching

import (
	"math"
	"testing"

	"obm/internal/stats"
)

func mateWeight(n int, edges []WeightedEdge, mate []int) float64 {
	var w float64
	for _, e := range edges {
		if mate[e.U] == e.V && mate[e.V] == e.U {
			w += e.W
		}
	}
	return w
}

func checkMateConsistent(t *testing.T, mate []int) {
	t.Helper()
	for v, m := range mate {
		if m == -1 {
			continue
		}
		if m < 0 || m >= len(mate) || mate[m] != v || m == v {
			t.Fatalf("inconsistent mate array: mate[%d]=%d, mate[%d]=%d", v, m, m, mate[m])
		}
	}
}

func TestMWMEmpty(t *testing.T) {
	mate := MaxWeightMatching(3, nil, false)
	for _, m := range mate {
		if m != -1 {
			t.Fatal("empty graph must have empty matching")
		}
	}
}

func TestMWMSingleEdge(t *testing.T) {
	mate := MaxWeightMatching(2, []WeightedEdge{{0, 1, 5}}, false)
	if mate[0] != 1 || mate[1] != 0 {
		t.Fatalf("mate = %v", mate)
	}
}

func TestMWMPicksHeavierOfTwo(t *testing.T) {
	// Path 0-1-2: must pick the heavier edge.
	edges := []WeightedEdge{{0, 1, 2}, {1, 2, 3}}
	mate := MaxWeightMatching(3, edges, false)
	if mate[1] != 2 || mate[0] != -1 {
		t.Fatalf("mate = %v, want 1-2 matched", mate)
	}
}

func TestMWMPrefersTwoLightOverOneHeavy(t *testing.T) {
	// Path 0-1-2-3 with weights 3, 5, 3: two light edges (6) beat the heavy one.
	edges := []WeightedEdge{{0, 1, 3}, {1, 2, 5}, {2, 3, 3}}
	mate := MaxWeightMatching(4, edges, false)
	if mate[0] != 1 || mate[2] != 3 {
		t.Fatalf("mate = %v, want {0-1, 2-3}", mate)
	}
}

func TestMWMTriangle(t *testing.T) {
	edges := []WeightedEdge{{0, 1, 6}, {1, 2, 5}, {0, 2, 4}}
	mate := MaxWeightMatching(3, edges, false)
	if w := mateWeight(3, edges, mate); w != 6 {
		t.Fatalf("triangle weight = %v, want 6", w)
	}
}

// TestMWMKnownTricky ports the classic regression cases from van Rantwijk's
// test suite: blossoms that must be created, used, expanded, and augmented
// through.
func TestMWMKnownTricky(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []WeightedEdge
		want  []int
	}{
		{
			name: "create blossom, use for augmentation",
			n:    4,
			edges: []WeightedEdge{
				{0, 1, 8}, {0, 2, 9}, {1, 2, 10}, {2, 3, 7},
			},
			want: []int{1, 0, 3, 2},
		},
		{
			name: "create S-blossom, relabel as T-blossom, use for augmentation",
			n:    6,
			edges: []WeightedEdge{
				{0, 1, 9}, {0, 2, 8}, {1, 2, 10}, {0, 3, 5}, {3, 4, 4}, {0, 5, 3},
			},
			want: []int{5, 2, 1, 4, 3, 0},
		},
		{
			name: "create nested S-blossom, use for augmentation",
			n:    6,
			edges: []WeightedEdge{
				{0, 1, 9}, {0, 2, 9}, {1, 2, 10}, {1, 3, 8}, {2, 4, 8}, {3, 4, 10}, {4, 5, 6},
			},
			want: []int{2, 3, 0, 1, 5, 4},
		},
		{
			name: "expand nested S-blossom",
			n:    7,
			edges: []WeightedEdge{
				{0, 1, 19}, {0, 2, 20}, {0, 7 - 7, 0}, // placeholder removed below
			},
			want: nil,
		},
	}
	// Replace the placeholder case with the real "expand nested S-blossom".
	cases[3] = struct {
		name  string
		n     int
		edges []WeightedEdge
		want  []int
	}{
		name: "expand nested S-blossom",
		n:    8,
		edges: []WeightedEdge{
			{0, 1, 19}, {0, 2, 20}, {1, 2, 25}, {1, 3, 18}, {2, 4, 18},
			{3, 4, 13}, {3, 6, 7}, {4, 7, 7},
		},
		want: []int{1, 0, 4, 6, 2, -1, 3, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mate := MaxWeightMatching(tc.n, tc.edges, false)
			checkMateConsistent(t, mate)
			got := mateWeight(tc.n, tc.edges, mate)
			want := bruteForce(tc.n, tc.edges, 1)
			if got != want {
				t.Fatalf("weight = %v, brute force = %v (mate %v)", got, want, mate)
			}
			if tc.want != nil {
				for v := range tc.want {
					if mate[v] != tc.want[v] {
						t.Logf("note: different optimal mate %v (want %v); weights equal", mate, tc.want)
						break
					}
				}
			}
		})
	}
}

func TestMWMSBlossomRelabelTricky(t *testing.T) {
	// Further regression cases exercising T-blossom expansion paths
	// (van Rantwijk tests 30-34 family).
	cases := [][]WeightedEdge{
		// S-blossom, relabel as T in more complex way
		{{0, 1, 45}, {0, 4, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 50}, {0, 5, 30}, {2, 8, 35}, {4, 7, 35}, {5, 6, 26}, {8, 9, 5}},
		// again, with a different crossing edge
		{{0, 1, 45}, {0, 4, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 50}, {0, 5, 30}, {2, 8, 35}, {4, 7, 26}, {5, 6, 40}, {8, 9, 5}},
		// create blossom, relabel as T, expand
		{{0, 1, 23}, {0, 4, 22}, {0, 5, 15}, {1, 2, 25}, {2, 3, 22}, {3, 4, 25}, {3, 7, 14}, {4, 8, 13}, {5, 6, 11}},
		// create nested blossom, relabel as T, expand
		{{0, 1, 19}, {0, 2, 20}, {0, 7, 8}, {1, 2, 25}, {1, 3, 18}, {2, 4, 18}, {3, 4, 13}, {3, 6, 7}, {4, 8, 6}},
	}
	for i, edges := range cases {
		n := 0
		for _, e := range edges {
			if e.U >= n {
				n = e.U + 1
			}
			if e.V >= n {
				n = e.V + 1
			}
		}
		mate := MaxWeightMatching(n, edges, false)
		checkMateConsistent(t, mate)
		got := mateWeight(n, edges, mate)
		want := bruteForce(n, edges, 1)
		if got != want {
			t.Fatalf("case %d: weight %v, brute force %v", i, got, want)
		}
	}
}

func TestMWMRandomVsBruteForce(t *testing.T) {
	r := stats.NewRand(17)
	for trial := 0; trial < 300; trial++ {
		n := 4 + r.Intn(5) // 4..8 vertices
		var edges []WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.55) {
					edges = append(edges, WeightedEdge{u, v, float64(1 + r.Intn(20))})
				}
			}
		}
		if len(edges) > 22 {
			edges = edges[:22]
		}
		mate := MaxWeightMatching(n, edges, false)
		checkMateConsistent(t, mate)
		got := mateWeight(n, edges, mate)
		want := bruteForce(n, edges, 1)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d, m=%d): blossom %v != brute force %v\nedges: %v",
				trial, n, len(edges), got, want, edges)
		}
	}
}

func TestMWMMaxCardinality(t *testing.T) {
	// Path 0-1-2 with weights 2, 3: plain MWM picks {1,2}; max-cardinality
	// also picks one edge (max matching size is 1)... use a case where
	// cardinality matters: path 0-1-2-3 weights 1, 100, 1.
	edges := []WeightedEdge{{0, 1, 1}, {1, 2, 100}, {2, 3, 1}}
	plain := MaxWeightMatching(4, edges, false)
	if mateWeight(4, edges, plain) != 100 {
		t.Fatalf("plain MWM weight = %v", mateWeight(4, edges, plain))
	}
	maxc := MaxWeightMatching(4, edges, true)
	matchedEdges := 0
	for v, m := range maxc {
		if m > v {
			matchedEdges++
		}
	}
	if matchedEdges != 2 {
		t.Fatalf("max-cardinality matching has %d edges, want 2 (mate %v)", matchedEdges, maxc)
	}
}

func TestMWMNegativeWeightsIgnored(t *testing.T) {
	edges := []WeightedEdge{{0, 1, -5}, {1, 2, 4}}
	mate := MaxWeightMatching(3, edges, false)
	if mate[0] != -1 || mate[1] != 2 {
		t.Fatalf("mate = %v", mate)
	}
}

func TestMWMPanicsOnBadEdge(t *testing.T) {
	for _, edges := range [][]WeightedEdge{
		{{0, 0, 1}},
		{{0, 5, 1}},
		{{-1, 1, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edges %v: expected panic", edges)
				}
			}()
			MaxWeightMatching(3, edges, false)
		}()
	}
}

func TestMWMLargerRandomSanity(t *testing.T) {
	// No brute force here; check feasibility and that blossom >= greedy.
	r := stats.NewRand(23)
	for trial := 0; trial < 10; trial++ {
		n := 40
		var edges []WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.2) {
					edges = append(edges, WeightedEdge{u, v, float64(1 + r.Intn(1000))})
				}
			}
		}
		mate := MaxWeightMatching(n, edges, false)
		checkMateConsistent(t, mate)
		blossomW := mateWeight(n, edges, mate)
		greedy := greedyBMatching(n, edges, 1)
		var greedyW float64
		wmap := map[[2]int]float64{}
		for _, e := range edges {
			wmap[[2]int{e.U, e.V}] = e.W
		}
		for _, k := range greedy {
			u, v := k.Endpoints()
			greedyW += wmap[[2]int{u, v}]
		}
		if blossomW < greedyW {
			t.Fatalf("trial %d: blossom %v < greedy %v", trial, blossomW, greedyW)
		}
	}
}
