// Command xqplan shows every phase of the tree-pattern compilation pipeline
// (Fig. 2 of the paper) for a query: the parsed surface syntax, the
// normalized XQuery Core, the TPNF' rewritten core, the compiled algebraic
// plan, the optimized plan with detected TupleTreePattern operators, and
// the physical plan with its slot layout and per-pattern algorithm
// annotation.
//
// Usage:
//
//	xqplan '$d//person[emailaddress]/name'
//	xqplan -alg auto '$d//person/name'                  # physical phase for another algorithm
//	xqplan -alg auto -file doc.xml '$d//person/name'    # Auto's choice for a concrete document
//	xqplan -alg auto -dir corpus/ '$d//person/name'     # per-member choices across a collection
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"xqtp"
)

func main() {
	trace := flag.Bool("trace", false, "show every intermediate rewriting step")
	algName := flag.String("alg", "sc", "algorithm of the physical phase: nl, sc, twig, auto")
	file := flag.String("file", "", "XML document to annotate the -alg auto choice for")
	dir := flag.String("dir", "", "directory of *.xml files: render the -alg auto choice per member")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xqplan [-trace] [-alg nl|sc|twig|auto] [-file doc.xml | -dir corpus/] <query>")
		os.Exit(2)
	}
	alg, err := xqtp.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	if *trace {
		_, tr, err := xqtp.PrepareTraced(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		fmt.Println(tr)
		return
	}
	q, err := xqtp.Prepare(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	fmt.Println(q.Explain())

	var doc *xqtp.Document
	if *file != "" {
		doc, err = loadFile(*file)
		if err != nil {
			fatal(err)
		}
	}
	if alg != xqtp.Staircase || doc != nil {
		// Explain's physical phase shows the Staircase plan; render the
		// requested algorithm's phase (annotated when a document is given)
		// in addition.
		phys, err := q.ExplainPhysical(alg, doc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nPhysical plan (%s):\n%s", alg, phys)
	}
	if *dir != "" {
		matches, err := filepath.Glob(filepath.Join(*dir, "*.xml"))
		if err != nil {
			fatal(err)
		}
		if len(matches) == 0 {
			fatal(fmt.Errorf("no *.xml files in %s", *dir))
		}
		sort.Strings(matches)
		corpus, err := xqtp.LoadCorpusFiles(matches, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nPer-member plans (%s, %d members):\n", alg, corpus.Len())
		for i, uri := range corpus.URIs() {
			phys, err := q.ExplainPhysical(alg, corpus.DocumentAt(i))
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s:\n%s", uri, phys)
		}
	}
	fmt.Printf("\nTupleTreePattern operators: %d\n", q.TreePatterns())
}

func loadFile(path string) (*xqtp.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := xqtp.LoadXML(f)
	if err != nil {
		return nil, err
	}
	doc.SetURI(path)
	return doc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xqplan:", err)
	os.Exit(1)
}
