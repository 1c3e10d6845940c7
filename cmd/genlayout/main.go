// Command genlayout writes the ten synthetic benchmark layouts as .glp
// text files, so they can be inspected, edited, and fed back through
// cfaopc -layout or evalmask.
//
// With -array RxC it instead writes one repeated-cell array layout —
// R rows by C columns of an identical motif, the best case for the
// window dedup cache (cfaopc -window-cache): every cell window hashes
// identically, so a tiled run computes one cell and serves the rest.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cfaopc/internal/gds"
	"cfaopc/internal/layout"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genlayout: ")
	outDir := flag.String("out", "layouts", "output directory")
	asGDS := flag.Bool("gds", false, "also write each case as a GDSII stream on layer 1")
	arraySpec := flag.String("array", "", "write one RxC repeated-cell array layout (e.g. -array 8x8) instead of the benchmark suite")
	tileNM := flag.Int("tile-nm", 0, "array mode: tile edge in nm (default 2048)")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	var suite []*layout.Layout
	if *arraySpec != "" {
		rows, cols, err := parseArraySpec(*arraySpec)
		if err != nil {
			log.Fatal(err)
		}
		l, err := layout.GenerateArray(rows, cols, layout.ArrayConfig{TileNM: *tileNM})
		if err != nil {
			log.Fatal(err)
		}
		suite = []*layout.Layout{l}
	} else {
		if *tileNM != 0 {
			log.Fatal("-tile-nm only applies with -array RxC")
		}
		suite = layout.GenerateSuite()
	}
	for _, l := range suite {
		path := filepath.Join(*outDir, l.Name+".glp")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := l.Write(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("%s: %d rects, %d nm2\n", path, len(l.Rects), l.Area())
		if *asGDS {
			gp := filepath.Join(*outDir, l.Name+".gds")
			gf, err := os.Create(gp)
			if err != nil {
				log.Fatal(err)
			}
			if err := gds.Write(gf, l, 1); err != nil {
				log.Fatal(err)
			}
			gf.Close()
			fmt.Printf("%s: GDSII stream\n", gp)
		}
	}
}

// parseArraySpec parses "RxC" (e.g. "8x8", "4X16") into positive
// row/column counts.
func parseArraySpec(spec string) (rows, cols int, err error) {
	lo := strings.ToLower(spec)
	a, b, ok := strings.Cut(lo, "x")
	if ok {
		rows, err = strconv.Atoi(a)
		if err == nil {
			cols, err = strconv.Atoi(b)
		}
	}
	if !ok || err != nil || rows <= 0 || cols <= 0 {
		return 0, 0, fmt.Errorf("-array %q: want RxC with positive integers, e.g. 8x8", spec)
	}
	return rows, cols, nil
}
