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
	"io"
	"os"

	"xqtp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmlgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("kind", "member", "document kind: member, xmark, deep")
		seed   = fs.Int64("seed", 1, "generator seed")
		bytes_ = fs.Int("bytes", 2_100_000, "target serialized size (member)")
		people = fs.Int("people", 255, "number of persons (xmark)")
		nodes  = fs.Int("nodes", 50_000, "number of elements (deep)")
		depth  = fs.Int("depth", 15, "maximum depth (deep)")
		tag    = fs.String("tag", "t1", "element tag (deep)")
		format = fs.String("format", "xml", "output format: xml, snapshot (one-member corpus snapshot: xq -snapshot, xqd, OpenSnapshotFile, OpenCorpusFile)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var doc *xqtp.Document
	switch *kind {
	case "member":
		doc = xqtp.NewMemberDocument(*seed, *bytes_)
	case "xmark":
		doc = xqtp.NewXMarkDocument(*seed, *people)
	case "deep":
		doc = xqtp.NewDeepDocument(*seed, *nodes, *depth, *tag)
	default:
		fmt.Fprintf(stderr, "xmlgen: unknown kind %q\n", *kind)
		return 2
	}
	w := bufio.NewWriter(stdout)
	switch *format {
	case "xml":
		if err := doc.WriteXML(w); err != nil {
			fmt.Fprintln(stderr, "xmlgen:", err)
			return 1
		}
		fmt.Fprintln(w)
	case "snapshot":
		if err := doc.SaveSnapshot(w); err != nil {
			fmt.Fprintln(stderr, "xmlgen:", err)
			return 1
		}
	default:
		fmt.Fprintf(stderr, "xmlgen: unknown format %q\n", *format)
		return 2
	}
	// Output smaller than the buffer reaches stdout only here.
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "xmlgen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "xmlgen: %d nodes, %d bytes of XML\n", doc.NumNodes(), doc.SizeBytes())
	return 0
}
