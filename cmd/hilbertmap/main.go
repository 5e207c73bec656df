// Command hilbertmap inspects the proximity mapping: landmark vectors,
// Hilbert numbers, DHT keys, and how well closeness in key space tracks
// physical closeness on a generated topology.
//
// Usage:
//
//	hilbertmap -preset ts5k-large -seed 1 -samples 12   # show sample mappings
//	hilbertmap -preset ts5k-large -locality             # locality quality report
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"p2plb/internal/proximity"
	"p2plb/internal/topology"
)

func main() {
	var (
		preset   = flag.String("preset", "ts5k-large", "topology preset: ts5k-large or ts5k-small")
		seed     = flag.Int64("seed", 1, "generation seed")
		samples  = flag.Int("samples", 8, "nodes to print mappings for")
		locality = flag.Bool("locality", false, "report locality quality instead of samples")
		bits     = flag.Int("bits", proximity.DefaultBitsPerDimension, "grid bits per landmark dimension")
		lmCount  = flag.Int("landmarks", proximity.DefaultLandmarkCount, "number of landmarks")
	)
	flag.Parse()
	var params topology.Params
	switch *preset {
	case "ts5k-large":
		params = topology.TS5kLarge(*seed)
	case "ts5k-small":
		params = topology.TS5kSmall(*seed)
	default:
		fmt.Fprintf(os.Stderr, "hilbertmap: unknown preset %q\n", *preset)
		os.Exit(2)
	}
	g, err := topology.Generate(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilbertmap:", err)
		os.Exit(1)
	}
	lat := topology.NewDistancesMetric(g, topology.LatencyMetric)
	rng := rand.New(rand.NewSource(*seed))
	lm, err := proximity.ChooseSpread(g, lat, rng, *lmCount)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilbertmap:", err)
		os.Exit(1)
	}
	m, err := proximity.NewMapper(lm, *bits)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilbertmap:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d landmarks, %d bits/dim (curve index %d bits)\n",
		*preset, lm.Count(), *bits, lm.Count()**bits)

	if !*locality {
		stubs := g.StubNodes()
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  node\tdomain\tgrid cell (first 6 dims)\thilbert number\tDHT key")
		for i := 0; i < *samples; i++ {
			n := stubs[rng.Intn(len(stubs))]
			coords := m.GridCoords(n)
			fmt.Fprintf(w, "  %d\t%d\t%v…\t%#x\t%s\n",
				n, g.Node(n).Domain, coords[:6], m.HilbertNumber(n), m.Key(n))
		}
		w.Flush()
		return
	}

	// Locality report: for random pairs, bucket physical hop distance
	// and report mean absolute key distance per bucket.
	type bucket struct {
		sum   float64
		count int
		same  int
	}
	buckets := map[string]*bucket{
		"same stub domain (<=2 hops)": {},
		"same region (<=9 hops)":      {},
		"far (>=10 hops)":             {},
	}
	hops := topology.NewDistances(g)
	stubs := g.StubNodes()
	for sampled := 0; sampled < 20000; {
		a := stubs[rng.Intn(len(stubs))]
		b := stubs[rng.Intn(len(stubs))]
		if a == b {
			continue
		}
		sampled++
		d := hops.Between(a, b)
		var key string
		switch {
		case d <= 2:
			key = "same stub domain (<=2 hops)"
		case d <= 9:
			key = "same region (<=9 hops)"
		default:
			key = "far (>=10 hops)"
		}
		ka, kb := m.Key(a), m.Key(b)
		gap := ka.Dist(kb)
		if rev := kb.Dist(ka); rev < gap {
			gap = rev
		}
		bk := buckets[key]
		bk.sum += float64(gap)
		bk.count++
		if m.HilbertNumber(a) == m.HilbertNumber(b) {
			bk.same++
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  physical closeness\tpairs\tmean key gap\texact cell collision")
	for _, key := range []string{"same stub domain (<=2 hops)", "same region (<=9 hops)", "far (>=10 hops)"} {
		bk := buckets[key]
		if bk.count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s\t%d\t%.3g\t%.1f%%\n",
			key, bk.count, bk.sum/float64(bk.count), 100*float64(bk.same)/float64(bk.count))
	}
	w.Flush()
}
