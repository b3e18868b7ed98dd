package execctx_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"xqtp/internal/execctx"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

var errSinkFull = errors.New("sink full")

// recorder is a plain Sink that records the ranks of the nodes pushed to it
// and fails the push numbered failAt (1-based; 0: never).
type recorder struct {
	got    []int32
	failAt int
}

func (s *recorder) Push(it xdm.Item) error {
	return s.take(int32(it.(*xdm.Node).Pre))
}

func (s *recorder) take(r int32) error {
	if len(s.got)+1 == s.failAt {
		return errSinkFull
	}
	s.got = append(s.got, r)
	return nil
}

// rankRecorder takes nodes as ranks.
type rankRecorder struct{ recorder }

func (s *rankRecorder) PushRank(_ *xdm.Tree, r int32) error { return s.take(r) }

type outcome struct {
	got         []int32
	rows, bytes int64
	err         string
}

func ingest(t *testing.T) *xdm.Tree {
	t.Helper()
	ix, err := xmlstore.IngestString(`<r a="1"><p k="v">x<b/>y</p><p/><q><p>z</p></q>t</r>`)
	if err != nil {
		t.Fatal(err)
	}
	return ix.Tree
}

// DeliverNodes gives a Collector, a plain Sink and a RankSink what Deliver
// gives a plain Sink for the same nodes as a Sequence: the same delivered
// prefix, row and byte counts and error, under no budget, every row budget,
// byte budgets at each item boundary ±1, a failing sink and a nil context,
// for every field of several binding widths.
func TestDeliverNodesMatchesDeliver(t *testing.T) {
	tr := ingest(t)
	ranks := make([]int32, len(tr.Cols.Kind))
	for r := range ranks {
		ranks[r] = int32(r)
	}
	for stride := 1; stride <= 3; stride++ {
		for first := 0; first <= stride; first++ {
			var seq xdm.Sequence
			weights := []int64{0}
			for i := first; i < len(ranks); i += stride {
				seq = append(seq, tr.Node(ranks[i]))
				weights = append(weights, weights[len(weights)-1]+(int64(tr.Cols.Size[ranks[i]])+1)*16)
			}
			type budget struct{ rows, bytes int64 }
			budgets := []budget{{0, 0}}
			for k := range len(seq) + 2 {
				budgets = append(budgets, budget{int64(k), 0})
			}
			for _, w := range weights {
				budgets = append(budgets, budget{0, w - 1}, budget{0, w}, budget{0, w + 1})
			}
			for _, b := range budgets {
				for failAt := 0; failAt <= 2; failAt++ {
					name := fmt.Sprintf("stride=%d/first=%d/rows=%d/bytes=%d/failAt=%d", stride, first, b.rows, b.bytes, failAt)
					run := func(deliver func(*execctx.Ctx) error, sink *recorder) outcome {
						ec := newCtx(t, b.rows, b.bytes)
						err := deliver(ec)
						return outcome{got: sink.got, rows: ec.Rows(), bytes: ec.Bytes(), err: fmt.Sprint(err)}
					}
					ref := &recorder{failAt: failAt}
					want := run(func(ec *execctx.Ctx) error { return execctx.Deliver(ec, ref, seq) }, ref)
					plain := &recorder{failAt: failAt}
					rs := &rankRecorder{recorder{failAt: failAt}}
					for label, got := range map[string]outcome{
						"plain": run(func(ec *execctx.Ctx) error {
							return execctx.DeliverNodes(ec, plain, tr, ranks, first, stride)
						}, plain),
						"rank": run(func(ec *execctx.Ctx) error {
							return execctx.DeliverNodes(ec, rs, tr, ranks, first, stride)
						}, &rs.recorder),
					} {
						if !slices.Equal(got.got, want.got) || got.rows != want.rows || got.bytes != want.bytes || got.err != want.err {
							t.Fatalf("%s, %s sink: %+v, Deliver: %+v", name, label, got, want)
						}
					}
					if failAt > 0 {
						continue
					}
					col := &execctx.Collector{}
					ec := newCtx(t, b.rows, b.bytes)
					err := execctx.DeliverNodes(ec, col, tr, ranks, first, stride)
					var colRanks []int32
					for _, it := range col.Seq {
						colRanks = append(colRanks, int32(it.(*xdm.Node).Pre))
					}
					if !slices.Equal(colRanks, want.got) || ec.Rows() != want.rows || ec.Bytes() != want.bytes || fmt.Sprint(err) != want.err {
						t.Fatalf("%s, Collector: %v rows=%d bytes=%d err=%v, Deliver: %+v", name, colRanks, ec.Rows(), ec.Bytes(), err, want)
					}
				}
			}
			for failAt := 0; failAt <= 2; failAt++ {
				ref, rs := &recorder{failAt: failAt}, &rankRecorder{recorder{failAt: failAt}}
				wantErr := execctx.Deliver(nil, ref, seq)
				if err := execctx.DeliverNodes(nil, rs, tr, ranks, first, stride); err != wantErr || !slices.Equal(rs.got, ref.got) {
					t.Fatalf("nil context, stride=%d first=%d failAt=%d: %v %v, Deliver: %v %v", stride, first, failAt, rs.got, err, ref.got, wantErr)
				}
			}
		}
	}
}

// newCtx returns a non-nil context under the given budgets, canceled only
// when the test ends.
func newCtx(t *testing.T, rows, bytes int64) *execctx.Ctx {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return execctx.From(ctx, rows, bytes)
}

// A RankSink gets every node as a rank, under budgets and without: no node
// is built for it.
func TestDeliverNodesToRankSinkBuildsNoNode(t *testing.T) {
	tr := ingest(t)
	ranks := []int32{1, 3, 5, 7}
	before := tr.NodesBuilt()
	for _, ec := range []*execctx.Ctx{nil, newCtx(t, 0, 0), newCtx(t, 3, 1<<20)} {
		rs := &rankRecorder{}
		if err := execctx.DeliverNodes(ec, rs, tr, ranks, 0, 1); err != nil && !errors.Is(err, execctx.ErrBudgetExceeded) {
			t.Fatal(err)
		}
		if len(rs.got) == 0 {
			t.Fatal("nothing delivered")
		}
	}
	if after := tr.NodesBuilt(); after != before {
		t.Fatalf("%d nodes built for a RankSink", after-before)
	}
}
