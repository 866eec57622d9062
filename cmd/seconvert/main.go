// Command seconvert rewrites an index container in the current on-disk
// layout without rebuilding it. Containers written in the older decoded se
// layout — se containers, se members of a multi, and the oracle inside
// a2a and dynamic containers — load as the flat image, so the rewrite
// stores them in the zero-parse layout seserve queries straight from the
// memory-mapped file: O(1) cold start, no decode copies, and a smaller file
// (cold slabs are deflated). A multi container written without a hierarchy
// section gains one (every member at level 0, POI counts from the member
// bodies); its other sections are copied unchanged. Answers are
// bit-identical. A container already in the current layout is rewritten
// byte for byte.
//
// Usage:
//
//	seconvert -in oracle.sedx -out oracle.flat.sedx
//
// The output is written atomically: to a temp file in the destination
// directory, then renamed over -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"seoracle/internal/core"
)

func main() {
	var (
		in  = flag.String("in", "", "input index container (any layout)")
		out = flag.String("out", "", "output container path")
	)
	flag.Parse()

	if *in == "" || *out == "" {
		fatal("need -in and -out")
	}

	idx, err := core.LoadFile(*in)
	if err != nil {
		fatal("loading %s: %v", *in, err)
	}
	inStat, err := os.Stat(*in)
	if err != nil {
		fatal("%v", err)
	}

	tmp, err := os.CreateTemp(filepath.Dir(*out), filepath.Base(*out)+".tmp*")
	if err != nil {
		fatal("%v", err)
	}
	if err := idx.EncodeTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		fatal("writing container: %v", err)
	}
	outSize, err := tmp.Seek(0, 1)
	if err == nil {
		err = tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), *out)
	}
	if err != nil {
		os.Remove(tmp.Name())
		fatal("writing %s: %v", *out, err)
	}

	st := idx.Stats()
	fmt.Printf("converted: kind=%s, %d points, eps=%g -> %s\n",
		st.Kind, st.Points, st.Epsilon, *out)
	fmt.Printf("size: %d -> %d bytes (%.1f%%), %.1f B/point\n",
		inStat.Size(), outSize, 100*float64(outSize)/float64(inStat.Size()),
		float64(outSize)/float64(max(st.Points, 1)))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "seconvert: "+format+"\n", args...)
	os.Exit(1)
}
