package main

import (
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestUncalled runs the check over testdata/mod, a module with a nested
// module under sub/, under three exception lists.
func TestUncalled(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	found := []string{
		"exported const internal/lib.C has no caller outside tests",
		"exported method internal/lib.T.Dead has no caller outside tests",
		"exported func internal/lib.Uncalled has no caller outside tests",
		"exported func internal/lib.Chained has no caller outside tests",
		"exported func internal/lib.Internal has no caller outside tests",
	}
	cases := []struct {
		name   string
		except []string
		want   []string
	}{
		{
			// A reachable caller in the same package, an init function,
			// a nested module, a method that calls through an interface
			// reach, a qnet alias and an exception each keep a name off
			// the list; a test, or a caller nothing reaches, does not.
			name:   "exceptions hold",
			except: []string{"internal/lib.Kept", "internal/ref"},
			want:   found,
		},
		{
			name:   "stale exceptions",
			except: []string{"internal/lib.Used", "internal/lib.Gone", "internal/ref"},
			want: append([]string{
				"exception internal/lib.Gone names nothing: drop it from the list",
				"exception internal/lib.Used has a caller: drop it from the list",
				"exported func internal/lib.Kept has no caller outside tests",
				"exported func internal/lib.KeptDep has no caller outside tests",
			}, found...),
		},
		{
			name:   "imported package exception",
			except: []string{"internal/lib"},
			want: []string{
				"exception internal/lib is imported by qnet: drop it from the list",
				"exported func internal/ref.Model has no caller outside tests",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			findings, err := uncalled(root, tc.except)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range findings {
				// Drop the "file:line:col: " position of a declaration.
				if i := strings.Index(f, ": "); i >= 0 && !strings.HasPrefix(f, "exception") {
					f = f[i+2:]
				}
				got = append(got, f)
			}
			sort.Strings(got)
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
