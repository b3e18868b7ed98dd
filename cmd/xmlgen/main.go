// Command xmlgen generates the synthetic XML documents used by the paper's
// experiments: MemBeR-style random trees, XMark-like auction documents, and
// the deep single-tag document of §5.3.
//
// Usage:
//
//	xmlgen -kind member -bytes 2100000 -seed 1 > member.xml
//	xmlgen -kind xmark -people 1000 > auctions.xml
//	xmlgen -kind deep -nodes 50000 -depth 15 > deep.xml
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"xqtp"
)

func main() {
	var (
		kind   = flag.String("kind", "member", "document kind: member, xmark, deep")
		seed   = flag.Int64("seed", 1, "generator seed")
		bytes_ = flag.Int("bytes", 2_100_000, "target serialized size (member)")
		people = flag.Int("people", 255, "number of persons (xmark)")
		nodes  = flag.Int("nodes", 50_000, "number of elements (deep)")
		depth  = flag.Int("depth", 15, "maximum depth (deep)")
		tag    = flag.String("tag", "t1", "element tag (deep)")
		format = flag.String("format", "xml", "output format: xml, snapshot (one-member corpus snapshot: xq -snapshot, xqd, OpenSnapshotFile, OpenCorpusFile)")
	)
	flag.Parse()

	var doc *xqtp.Document
	switch *kind {
	case "member":
		doc = xqtp.NewMemberDocument(*seed, *bytes_)
	case "xmark":
		doc = xqtp.NewXMarkDocument(*seed, *people)
	case "deep":
		doc = xqtp.NewDeepDocument(*seed, *nodes, *depth, *tag)
	default:
		fmt.Fprintf(os.Stderr, "xmlgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	w := bufio.NewWriter(os.Stdout)
	switch *format {
	case "xml":
		if err := doc.WriteXML(w); err != nil {
			fmt.Fprintln(os.Stderr, "xmlgen:", err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	case "snapshot":
		if err := doc.SaveSnapshot(w); err != nil {
			fmt.Fprintln(os.Stderr, "xmlgen:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "xmlgen: unknown format %q\n", *format)
		os.Exit(2)
	}
	// Output smaller than the buffer reaches stdout only here.
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "xmlgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "xmlgen: %d nodes, %d bytes of XML\n", doc.NumNodes(), doc.SizeBytes())
}
