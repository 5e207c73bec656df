// The laundered case: map-iteration order flows through a local and an
// in-package helper call before reaching the return. No builtin append
// sits under the range — push hides it — so only the dataflow sees it;
// this file must produce exactly the detflow findings below (asserted
// by TestDetflowCatchesLaunderedFlow).
package detflow

import "sort"

// push is the laundering helper: its flow summary records that both
// parameters reach the result un-sorted.
func push(dst []string, s string) []string {
	return append(dst, s)
}

// canonPush is the cleansing twin: the sort on the way out makes the
// result order-independent, and the summary records that too.
func canonPush(dst []string, s string) []string {
	dst = append(dst, s)
	sort.Strings(dst)
	return dst
}

// badLaundered builds a slice in map order through the helper.
func badLaundered(m map[string]int) []string {
	var out []string
	for k := range m {
		out = push(out, k)
	}
	return out // want "map-iteration order"
}

// goodLaunderedCanon uses the canonicalizing helper; the summary's
// sort-cleansing keeps the result clean without any annotation.
func goodLaunderedCanon(m map[string]int) []string {
	var out []string
	for k := range m {
		out = canonPush(out, k)
	}
	return out
}
