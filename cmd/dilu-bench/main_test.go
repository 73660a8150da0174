package main

import (
	"reflect"
	"strings"
	"testing"

	"dilu/internal/experiments"
)

func driverIDs(ds []experiments.Driver) []string {
	ids := make([]string, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
	}
	return ids
}

// registryIDs lists the registry's ids of the given tiers, in registry
// order.
func registryIDs(tiers ...experiments.Tier) []string {
	var ids []string
	for _, d := range experiments.All() {
		for _, t := range tiers {
			if d.Tier == t {
				ids = append(ids, d.ID)
			}
		}
	}
	return ids
}

func TestSelectDrivers(t *testing.T) {
	cases := []struct {
		name    string
		ids     []string
		tier    string
		want    []string
		wantErr string
	}{
		{name: "no filter runs the whole registry", want: registryIDs(experiments.Tiers()...)},
		{name: "unknown tier", tier: "quick,fast", wantErr: `unknown tier "fast"`},
		{name: "tier filter that matches nothing", tier: " , ", wantErr: "unknown tier"},
		{name: "id excluded by -tier", ids: []string{"figure9", "figure10"}, tier: "quick",
			wantErr: "figure10 is slow tier, excluded by -tier quick"},
		{name: "unknown id", ids: []string{"figure99"}, wantErr: "figure99"},
		{name: "tier filter keeps registry order", tier: "slow,quick",
			want: registryIDs(experiments.TierQuick, experiments.TierSlow)},
		{name: "ids keep command-line order", ids: []string{"table2", "figure2"}, tier: "quick",
			want: []string{"table2", "figure2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectDrivers(tc.ids, tc.tier)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ids := driverIDs(got); !reflect.DeepEqual(ids, tc.want) {
				t.Fatalf("drivers = %v, want %v", ids, tc.want)
			}
		})
	}
}

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		name    string
		sweep   string
		single  int64
		want    []int64
		wantErr bool
	}{
		{name: "single-seed default", single: 7, want: []int64{7}},
		{name: "sweep", sweep: "1, 5,2", single: 7, want: []int64{1, 5, 2}},
		{name: "empty entry", sweep: "1,,2", wantErr: true},
		{name: "bad entry", sweep: "1,x", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseSeeds(tc.sweep, tc.single)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseSeeds(%q) = %v, want an error", tc.sweep, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseSeeds(%q, %d) = %v, want %v", tc.sweep, tc.single, got, tc.want)
			}
		})
	}
}
