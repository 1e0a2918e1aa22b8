package core

import (
	"reflect"
	"testing"
)

// Stats.add must union LostRanks: the old implementation summed the
// numeric fields and dropped the slice, so folding per-node stats
// together silently cleared Degraded().
func TestStatsAddUnionsLostRanks(t *testing.T) {
	cases := []struct {
		name string
		a, b Stats
		want Stats
	}{
		{
			name: "healthy plus healthy stays healthy",
			a:    Stats{Mapped: 3, Unmapped: 1, Locations: 4},
			b:    Stats{Mapped: 2, Locations: 2},
			want: Stats{Mapped: 5, Unmapped: 1, Locations: 6},
		},
		{
			name: "degraded side survives the merge",
			a:    Stats{Mapped: 1},
			b:    Stats{Mapped: 1, LostRanks: []int{2}},
			want: Stats{Mapped: 2, LostRanks: []int{2}},
		},
		{
			name: "union dedupes and sorts",
			a:    Stats{LostRanks: []int{3, 1}},
			b:    Stats{LostRanks: []int{1, 2}},
			want: Stats{LostRanks: []int{1, 2, 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a
			got.Add(tc.b)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("add(%+v, %+v) = %+v, want %+v", tc.a, tc.b, got, tc.want)
			}
			if got.Degraded() != tc.want.Degraded() {
				t.Errorf("Degraded() = %v, want %v", got.Degraded(), tc.want.Degraded())
			}
		})
	}
}

func TestUnionRanksNilForEmpty(t *testing.T) {
	if got := UnionRanks(nil, []int{}); got != nil {
		t.Errorf("UnionRanks(nil, empty) = %v, want nil", got)
	}
	if got := UnionRanks(); got != nil {
		t.Errorf("UnionRanks() = %v, want nil", got)
	}
	if got := UnionRanks([]int{3}, nil, []int{1, 3}); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("UnionRanks of three lists = %v, want [1 3]", got)
	}
}
