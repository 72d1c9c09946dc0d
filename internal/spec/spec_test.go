package spec

import (
	"errors"
	"strings"
	"testing"
)

// mustInvalid validates the spec, requires failure, and returns the
// collected field errors.
func mustInvalid(t *testing.T, s *Spec) *ValidationError {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate() = nil, want errors")
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("Validate() returned %T, want *ValidationError", err)
	}
	return ve
}

// hasPathError reports whether any collected error anchors at path and
// mentions msg.
func hasPathError(ve *ValidationError, path, msg string) bool {
	for _, fe := range ve.Errors {
		if fe.Path == path && strings.Contains(fe.Msg, msg) {
			return true
		}
	}
	return false
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"version": 1, "name": "x", "campain": {}}`))
	if err == nil || !strings.Contains(err.Error(), "campain") {
		t.Errorf("typo'd field must be rejected by name, got %v", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := DecodeBytes([]byte(`{"version": 1, "name": "x", "campaign": {"days": 1, "nodes": 1, "mean_util": 0.5}, "clients": []} {"oops": true}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing JSON must be rejected, got %v", err)
	}
}

func TestDecodeRejectsMalformedJSON(t *testing.T) {
	if _, err := DecodeBytes([]byte(`{"version": 1,`)); err == nil {
		t.Error("truncated JSON must be rejected")
	}
}

// TestValidateFieldPaths checks that each class of problem is reported
// at its exact JSON path — the error-message contract the CLI and CI
// lean on.
func TestValidateFieldPaths(t *testing.T) {
	s := minimalSpec()
	s.Version = 2
	s.Name = ""
	s.Campaign.Days = 0
	s.Campaign.MeanUtil = 1.5
	ve := mustInvalid(t, s)
	for _, want := range []struct{ path, msg string }{
		{"version", "must be 1"},
		{"name", "must be set"},
		{"campaign.days", "must be > 0"},
		{"campaign.mean_util", "must be in (0, 1]"},
	} {
		if !hasPathError(ve, want.path, want.msg) {
			t.Errorf("missing error %s: %s in:\n%v", want.path, want.msg, ve)
		}
	}
}

// TestValidateSamplePeriod: a campaign ticks a whole number of times a
// day, so the period must be 0 (the 900 s default) or a whole number of
// seconds dividing 86400; anything else would panic at run time or run
// short days.
func TestValidateSamplePeriod(t *testing.T) {
	for _, tc := range []struct {
		period float64
		ok     bool
	}{
		{0, true}, {900, true}, {3600, true}, {86400, true},
		{1000, false}, {900.5, false}, {0.5, false}, {-900, false}, {172800, false},
	} {
		s := minimalSpec()
		s.Campaign.SamplePeriodSeconds = tc.period
		err := s.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("period %v: %v", tc.period, err)
			}
			continue
		}
		if ve := mustInvalid(t, s); !hasPathError(ve, "campaign.sample_period_seconds", "divid") {
			t.Errorf("period %v: missing campaign.sample_period_seconds error in:\n%v", tc.period, ve)
		}
	}
}

func TestValidateClientErrors(t *testing.T) {
	share := 0.3
	cv := 0.5
	s := minimalSpec()
	s.Clients = append(s.Clients, Client{
		Name:    "only", // duplicate of the remainder client's name
		Share:   &share,
		Profile: Profile{Kernel: "fft", ComputeDuty: 2, CommActive: 0.5},
		Arrival: &Arrival{Process: "gamma", CV: cv},
	})
	ve := mustInvalid(t, s)
	for _, want := range []struct{ path, msg string }{
		{"clients[1].name", "duplicate"},
		{"clients[1].profile.kernel", "unknown kernel"},
		{"clients[1].profile.compute_duty", "must be in [0, 1]"},
		{"clients[1].arrival.cv", "must be >= 1"},
	} {
		if !hasPathError(ve, want.path, want.msg) {
			t.Errorf("missing error %s: %s in:\n%v", want.path, want.msg, ve)
		}
	}
}

func TestValidateRemainderRules(t *testing.T) {
	s := minimalSpec()
	s.Clients[0].Remainder = false
	share := 0.5
	s.Clients[0].Share = &share
	ve := mustInvalid(t, s)
	if !hasPathError(ve, "clients", "exactly one client must set remainder") {
		t.Errorf("missing no-remainder error in:\n%v", ve)
	}

	s = minimalSpec()
	s.Clients[0].Share = &share
	ve = mustInvalid(t, s)
	if !hasPathError(ve, "clients[0].share", "remainder client must not set share") {
		t.Errorf("missing remainder-share error in:\n%v", ve)
	}
}

func TestValidateShareBudget(t *testing.T) {
	a, b := 0.7, 0.5
	s := minimalSpec()
	s.Clients = append(s.Clients,
		Client{Name: "a", Share: &a, Profile: s.Clients[0].Profile},
		Client{Name: "b", Share: &b, Profile: s.Clients[0].Profile},
	)
	ve := mustInvalid(t, s)
	if !hasPathError(ve, "clients", "must not exceed 1") {
		t.Errorf("missing share-budget error in:\n%v", ve)
	}
}

func TestValidateDistFamilies(t *testing.T) {
	mu, lo := 1.0, 2.0
	s := minimalSpec()
	s.Runtime = &Dist{Dist: "lognormal", Mu: &mu} // sigma missing
	ve := mustInvalid(t, s)
	if !hasPathError(ve, "runtime.sigma", "required for dist") {
		t.Errorf("missing required-param error in:\n%v", ve)
	}

	s = minimalSpec()
	s.Runtime = &Dist{Dist: "exponential", Mean: &mu, Lo: &lo} // stray param
	ve = mustInvalid(t, s)
	if !hasPathError(ve, "runtime.lo", "not a parameter") {
		t.Errorf("missing stray-param error in:\n%v", ve)
	}

	s = minimalSpec()
	s.Runtime = &Dist{Dist: "weibull"} // unknown family
	ve = mustInvalid(t, s)
	if !hasPathError(ve, "runtime.dist", "unknown dist") {
		t.Errorf("missing unknown-dist error in:\n%v", ve)
	}
}

func TestValidateLargeJobs(t *testing.T) {
	s := minimalSpec()
	s.LargeJobs = &LargeJobs{
		ThresholdNodes: 64,
		Overrides:      []Override{{Client: "ghost", Prob: 1.5}},
		Fallback:       "",
	}
	ve := mustInvalid(t, s)
	for _, want := range []struct{ path, msg string }{
		{"large_jobs.overrides[0].client", "unknown client"},
		{"large_jobs.overrides[0].prob", "must be in [0, 1]"},
		{"large_jobs.fallback", "must name a client"},
	} {
		if !hasPathError(ve, want.path, want.msg) {
			t.Errorf("missing error %s: %s in:\n%v", want.path, want.msg, ve)
		}
	}
}

func TestValidateFaults(t *testing.T) {
	s := minimalSpec()
	s.Faults = &Faults{DropProbPerSample: 1.2, MeanOutageTicks: -1}
	ve := mustInvalid(t, s)
	if !hasPathError(ve, "faults.drop_prob_per_sample", "must be in [0, 1]") {
		t.Errorf("missing fault-prob error in:\n%v", ve)
	}
	if !hasPathError(ve, "faults.mean_outage_ticks", "must be >= 0") {
		t.Errorf("missing outage-ticks error in:\n%v", ve)
	}
}

// TestValidationErrorRendering pins the one-line-per-problem rendering
// the CLI prints on exit 2.
func TestValidationErrorRendering(t *testing.T) {
	s := minimalSpec()
	s.Name = ""
	err := s.Validate()
	msg := err.Error()
	if !strings.Contains(msg, "invalid spec (1 problem)") {
		t.Errorf("header missing from %q", msg)
	}
	if !strings.Contains(msg, "\n  name: must be set") {
		t.Errorf("field line missing from %q", msg)
	}
}

func TestValidateAcceptsMinimal(t *testing.T) {
	if err := minimalSpec().Validate(); err != nil {
		t.Errorf("minimal spec must validate, got %v", err)
	}
}
