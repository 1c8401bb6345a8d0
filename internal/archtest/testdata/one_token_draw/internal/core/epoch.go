package core

import "sort"

func (e *epoch) segIdx(x float64) int {
	return sort.Search(len(e.cum), func(i int) bool { return e.cum[i] > x })
}
