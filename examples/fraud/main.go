// Fraud: the transaction-fraud scenario from the paper's introduction —
// "suspicious customers show fraud activity only w.r.t. some financial
// transactions".
//
// Customer accounts are described by eight behavioural features. For
// regular customers, transaction amounts track account balances and the
// foreign-transaction share tracks travel days; the remaining features are
// idiosyncratic. Two fraud patterns violate exactly one coupling each
// while staying inside every feature's normal range: money laundering
// (large transactions through small accounts) and card abuse (heavy
// foreign activity without travel). The example also demonstrates the
// kNN-distance scorer as an alternative to LOF and compares both against
// the plain full-space LOF baseline.
//
// Run with: go run ./examples/fraud
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"hics"
)

const nCustomers = 600

func main() {
	data, fraudIDs := simulateCustomers()

	opts := hics.Options{M: 100, Seed: 11, MinPts: 15}
	resLOF, err := hics.Rank(data, opts)
	if err != nil {
		log.Fatal(err)
	}
	knnOpts := opts
	knnOpts.Scorer = "knn"
	resKNN, err := hics.Rank(data, knnOpts)
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := hics.LOFScores(data, 15)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("planted fraud cases: customers %v\n\n", fraudIDs)
	show := func(label string, scores []float64) {
		fmt.Printf("%-22s", label)
		for _, id := range topK(scores, 4) {
			mark := " "
			for _, f := range fraudIDs {
				if id == f {
					mark = "*"
				}
			}
			fmt.Printf("  %s#%d", mark, id)
		}
		fmt.Printf("   (frauds found in top-4: %d/2)\n", hits(scores, fraudIDs, 4))
	}
	show("HiCS + LOF:", resLOF.Scores)
	show("HiCS + kNN-distance:", resKNN.Scores)
	show("full-space LOF:", baseline)

	fmt.Println("\nhighest-contrast feature combinations:")
	names := featureNames()
	for i, s := range resLOF.Subspaces {
		if i == 3 {
			break
		}
		fmt.Printf("  contrast %.3f:", s.Contrast)
		for _, d := range s.Dims {
			fmt.Printf(" %s", names[d])
		}
		fmt.Println()
	}
}

func featureNames() []string {
	return []string{
		"balance", "txn_amount", "travel_days", "foreign_share",
		"logins", "age_months", "support_calls", "products",
	}
}

// simulateCustomers builds the behavioural features of regular customers
// plus two planted fraud cases, returning the row-major data and the
// indices of the frauds.
func simulateCustomers() ([][]float64, []int) {
	r := rnd(7)
	rows := make([][]float64, 0, nCustomers+2)
	for i := 0; i < nCustomers; i++ {
		wealth := r.float()
		mobility := r.float()
		rows = append(rows, []float64{
			clamp(0.1 + 0.8*wealth + 0.03*r.normal()),    // balance
			clamp(0.1 + 0.75*wealth + 0.05*r.normal()),   // txn_amount tracks balance
			clamp(0.1 + 0.8*mobility + 0.03*r.normal()),  // travel_days
			clamp(0.1 + 0.75*mobility + 0.05*r.normal()), // foreign_share tracks travel
			r.float(), // logins
			r.float(), // age_months
			r.float(), // support_calls
			r.float(), // products
		})
	}
	// Laundering: small balance, large transactions.
	launderer := []float64{0.15, 0.8, 0, 0, r.float(), r.float(), r.float(), r.float()}
	launderer[2] = clamp(0.3 + 0.03*r.normal())
	launderer[3] = clamp(0.32 + 0.05*r.normal())
	rows = append(rows, launderer)
	// Card abuse: no travel, heavy foreign activity.
	abuse := []float64{0, 0, 0.12, 0.78, r.float(), r.float(), r.float(), r.float()}
	abuse[0] = clamp(0.6 + 0.03*r.normal())
	abuse[1] = clamp(0.58 + 0.05*r.normal())
	rows = append(rows, abuse)
	return rows, []int{nCustomers, nCustomers + 1}
}

func topK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

func hits(scores []float64, planted []int, k int) int {
	n := 0
	for _, id := range topK(scores, k) {
		for _, f := range planted {
			if id == f {
				n++
			}
		}
	}
	return n
}

func clamp(v float64) float64 { return math.Max(0, math.Min(1, v)) }

type prng struct{ s uint64 }

func rnd(seed uint64) *prng { return &prng{s: seed*0x9e3779b97f4a7c15 + 1} }

func (p *prng) float() float64 {
	p.s = p.s*6364136223846793005 + 1442695040888963407
	return float64(p.s>>11) / (1 << 53)
}

func (p *prng) normal() float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += p.float()
	}
	return sum - 6
}
