package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"xqtp"
	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// sizes are the input sizes of the four workloads. The short variant exists
// for the manifest test, which only checks which metrics a run emits.
type sizes struct {
	twigPeople    int // persons in serve_twig's single XMark member
	corpusMembers int // members of serve_corpus's snapshot
	adhocPeople   int // persons in compile_adhoc's XMark document
	adhocNodes    int // elements in compile_adhoc's MemBeR and deep documents
	cycleMembers  int // members per store_cycle batch
	cycleBatches  int
}

var (
	fullSizes  = sizes{twigPeople: 2000, corpusMembers: 3000, adhocPeople: 22, adhocNodes: 2200, cycleMembers: 200, cycleBatches: 8}
	shortSizes = sizes{twigPeople: 100, corpusMembers: 120, adhocPeople: 22, adhocNodes: 2200, cycleMembers: 20, cycleBatches: 2}
)

func serializeRoot(root *xdm.Node) []byte { return xmlstore.AppendXML(nil, root) }

func xmarkXML(seed int64, people int) []byte {
	return serializeRoot(gen.XMarkRoot(gen.XMarkConfig{Seed: seed, People: people}))
}

func memberXML(seed int64, tags, nodes int) []byte {
	return serializeRoot(gen.MemberRoot(gen.MemberConfig{Seed: seed, Depth: 4, NumTags: tags, NumNodes: nodes}))
}

const (
	needleXML   = `<needle><pin note="x">hit</pin></needle>`
	needleEvery = 1000 // one needle member per this many generated members
)

// mixedSources generates n small members, MemBeR-style (300 elements, 20
// tags) and XMark-like (8 persons) alternating as in the repository's
// collection experiment, with a needle member after every needleEvery-th and
// one at the end.
func mixedSources(seed int64, n int, prefix string) []xqtp.CorpusSource {
	out := make([]xqtp.CorpusSource, 0, n+n/needleEvery+1)
	needles := 0
	needle := func() {
		out = append(out, xqtp.CorpusSource{
			URI:  fmt.Sprintf("mem://%s-needle-%d.xml", prefix, needles),
			Data: []byte(needleXML),
		})
		needles++
	}
	for i := 0; i < n; i++ {
		var data []byte
		if i%2 == 0 {
			data = memberXML(seed+int64(i), 20, 300)
		} else {
			data = xmarkXML(seed+int64(i), 8)
		}
		out = append(out, xqtp.CorpusSource{URI: fmt.Sprintf("mem://%s-%05d.xml", prefix, i), Data: data})
		if (i+1)%needleEvery == 0 {
			needle()
		}
	}
	needle()
	return out
}

// cloneSources copies the XML bytes: ingest takes ownership of the slices it
// is given, and the oracle must parse its documents afresh.
func cloneSources(src []xqtp.CorpusSource) []xqtp.CorpusSource {
	out := make([]xqtp.CorpusSource, len(src))
	for i, s := range src {
		out[i] = xqtp.CorpusSource{URI: s.URI, Data: bytes.Clone(s.Data)}
	}
	return out
}

func sourceBytes(src []xqtp.CorpusSource) int {
	n := 0
	for _, s := range src {
		n += len(s.Data)
	}
	return n
}

// opSequence draws the seeded operation sequence: blocks in which operation
// kind k appears exactly weights[k] times, each block shuffled on its own.
// Every stretch of a few blocks therefore has the mix's proportions exactly,
// and two seeds differ in the order of the operations, not in how many of
// the expensive ones a window happens to hold.
func opSequence(seed int64, weights []int, blocks int) []int {
	var block []int
	for k, w := range weights {
		for ; w > 0; w-- {
			block = append(block, k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, blocks*len(block))
	for b := 0; b < blocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	return seq
}
