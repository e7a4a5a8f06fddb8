package serve

import (
	"errors"
	"strings"
	"testing"

	"orderlight/internal/olerrors"
)

// admissionCase is one admission check: opts go through Validate; a
// non-empty wire (the JSON "opts" object of a kernel job) is instead
// posted to the daemon handler, so wire-only rules such as the strict
// decoder's unknown-field refusal are held too.
type admissionCase struct {
	name string
	opts RunOpts
	wire string
	want string // "" accepts; otherwise a required substring of the error
}

// checkAdmission runs each case as a subtest and checks that a refusal
// is classified ErrInvalidSpec and names the offending option.
func checkAdmission(t *testing.T, cases []admissionCase) {
	t.Helper()
	_, client := newFakeServer(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.wire != "" {
				if _, je := postRaw(t, client.base, "/v1/jobs", `{"kind":"kernel","kernel":"add","opts":`+tc.wire+`}`); je != nil {
					err = je
				}
			} else {
				req := JobRequest{Kind: KindKernel, Kernel: "add", Opts: tc.opts}
				err = req.Validate()
			}
			if tc.want == "" {
				if err != nil {
					t.Fatalf("admission = %v, want accept", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("admission accepted, want error containing %q", tc.want)
			}
			if !errors.Is(err, olerrors.ErrInvalidSpec) {
				t.Errorf("error %v is not classified as ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateEngine pins engine-field validation on the job wire
// format: unknown engine names — including the removed "parallel" —
// are rejected at admission (never mapped to a default engine),
// conflicting selections are rejected, and a body carrying the removed
// "shards" field gets 400 invalid-spec from the daemon's strict decoder
// instead of running with the field silently dropped.
func TestValidateEngine(t *testing.T) {
	checkAdmission(t, []admissionCase{
		{name: "default"},
		{name: "skip", opts: RunOpts{Engine: "skip"}},
		{name: "dense", opts: RunOpts{Engine: "dense"}},
		{name: "dense flag", opts: RunOpts{Dense: true}},
		{name: "dense flag with dense engine", opts: RunOpts{Dense: true, Engine: "dense"}},
		{name: "wire engine", wire: `{"engine":"dense"}`},
		{name: "unknown engine", opts: RunOpts{Engine: "turbo"}, want: `unknown engine "turbo"`},
		{name: "misspelled engine", opts: RunOpts{Engine: "Skip"}, want: `unknown engine "Skip"`},
		{name: "parallel", wire: `{"engine":"parallel"}`, want: `unknown engine "parallel"`},
		{name: "dense flag vs skip engine", opts: RunOpts{Dense: true, Engine: "skip"}, want: "conflicts with engine"},
		{name: "dense flag vs parallel engine", opts: RunOpts{Dense: true, Engine: "parallel"}, want: `unknown engine "parallel"`},
		{name: "parallel with shards", wire: `{"engine":"parallel","shards":4}`, want: `unknown field "shards"`},
		{name: "negative shards", wire: `{"shards":-1}`, want: `unknown field "shards"`},
		{name: "shards without parallel", wire: `{"shards":4}`, want: `unknown field "shards"`},
		{name: "shards on dense", wire: `{"engine":"dense","shards":4}`, want: `unknown field "shards"`},
	})
}
