package mapreduce

import "math"

// Loser is a tree of losers (Knuth, TAOCP vol. 3, §5.4.1) over k sorted
// runs: the run whose head comes first, and after that head moves on
// the next, in O(log k) comparisons. Heads compare by Key, an integer
// per run ordered as the heads are as far as it goes, then by the tie
// function Build and Next are handed (nil: equal keys are equal heads),
// then by run, the earlier first, so a merge is stable. It is the one
// k-way merge: the reducer's (Groups.Each) and the answer's. Its state
// is carved from the Mem Start is given: merging allocates nothing.
type Loser struct {
	// Key is each run's head, as far as an integer orders it; the merge
	// sets a run's before Build and after its head moves on, before Next.
	Key  []uint64
	node []int32 // node[0] is the winner, node[j] the loser of match j
	done []byte  // a run whose heads are all taken
}

// Start readies a merge of k runs, its state carved from m. The caller
// sets every run's Key, then calls Build.
func (t *Loser) Start(m Mem, k int) {
	t.Key, t.node, t.done = Carve[uint64](m, k), Carve[int32](m, k), Carve[byte](m, k)
	clear(t.done)
}

// Build plays every match: a run's head that reaches a node second
// plays the one waiting there — the first to come, the winner of a whole
// subtree — and the loser waits there for good. tie decides equal keys:
// negative when run i's head comes first, 0 when the heads are equal.
func (t *Loser) Build(tie func(i, j int) int) {
	k := len(t.node)
	for j := range t.node {
		t.node[j] = -1
	}
	for i := k - 1; i >= 0; i-- {
		w := int32(i)
		for j := (i + k) / 2; j > 0 && w >= 0; j /= 2 {
			if t.node[j] < 0 {
				t.node[j], w = w, -1
			} else if t.before(t.node[j], w, tie) {
				t.node[j], w = w, t.node[j]
			}
		}
		if w >= 0 {
			t.node[0] = w
		}
	}
}

// Top returns the run whose head comes first, -1 once every run is done.
func (t *Loser) Top() int {
	if len(t.node) == 0 || t.done[t.node[0]] != 0 {
		return -1
	}
	return int(t.node[0])
}

// Next replays the matches of the top run, whose head has moved on — to
// the head its Key now holds, or past its last when done; tie is
// Build's.
func (t *Loser) Next(done bool, tie func(i, j int) int) {
	node, key := t.node, t.Key
	w := node[0]
	if done {
		key[w], t.done[w] = math.MaxUint64, 1
	}
	kw := key[w]
	for j := (int(w) + len(node)) / 2; j > 0; j /= 2 {
		// Unequal keys decide a match in line; before decides a tie.
		if o := node[j]; key[o] < kw || key[o] == kw && t.before(o, w, tie) {
			node[j], w, kw = w, o, key[o]
		}
	}
	node[0] = w
}

// before reports whether run i's head comes before run j's. A done run's
// key is the greatest, and on a tie it comes after a run that is not.
func (t *Loser) before(i, j int32, tie func(i, j int) int) bool {
	if ki, kj := t.Key[i], t.Key[j]; ki != kj {
		return ki < kj
	}
	if di, dj := t.done[i], t.done[j]; di != dj {
		return dj != 0
	} else if di == 0 && tie != nil {
		if c := tie(int(i), int(j)); c != 0 {
			return c < 0
		}
	}
	return i < j
}
