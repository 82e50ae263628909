package buggy

import "sort"

// MapOrderSortsOtherSlice sorts a different slice whose name merely
// contains the collected one's: keys itself stays in map order.
func MapOrderSortsOtherSlice(m map[string]int, keysSorted []string) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keysSorted)
	return keys
}
