package offload

import "testing"

// TestThresholdTrajectory pins the exact threshold sequence the
// feedback rule produces for a synthetic run of epochs: overflow
// doubling, budget-denial growth, equilibrium holds, and the cold-host
// decay down to the clamp floor.
func TestThresholdTrajectory(t *testing.T) {
	cfg := PolicyConfig{Min: 8, Max: 1024}
	cur := uint32(32)
	steps := []struct {
		name string
		fb   Feedback
		want uint32
	}{
		{"overflow doubles", Feedback{Overflows: 1, Promoted: 3, NICFrames: 50}, 64},
		{"overflow doubles again", Feedback{Overflows: 5}, 128},
		{"denied grows by half", Feedback{Denied: 2, Promoted: 1}, 192},
		{"equilibrium holds", Feedback{Promoted: 2, NICFrames: 80, HostFrames: 20}, 192},
		{"promoted blocks decay", Feedback{Promoted: 1, HostFrames: 100, NICFrames: 1}, 192},
		{"nic-majority idle holds", Feedback{NICFrames: 100, HostFrames: 1}, 192},
		{"cold host halves", Feedback{HostFrames: 100}, 96},
		{"cold host halves", Feedback{HostFrames: 100}, 48},
		{"cold host halves", Feedback{HostFrames: 100}, 24},
		{"cold host halves", Feedback{HostFrames: 100}, 12},
		{"clamped at min", Feedback{HostFrames: 100}, 8},
		{"stays at min", Feedback{HostFrames: 100}, 8},
		{"over-commit doubles", Feedback{NICFrames: 100, Residency: 4001, Work: 1000}, 16},
		{"residency at 4x work holds", Feedback{NICFrames: 100, Residency: 4000, Work: 1000}, 16},
		{"over-commit beats cold decay", Feedback{HostFrames: 100, Residency: 1}, 32},
		{"unsampled cold host halves", Feedback{HostFrames: 100}, 16},
	}
	for i, st := range steps {
		got := NextThreshold(cur, st.fb, cfg)
		if got != st.want {
			t.Fatalf("step %d (%s): NextThreshold(%d, %+v) = %d, want %d",
				i, st.name, cur, st.fb, got, st.want)
		}
		cur = got
	}
}

// TestThresholdPriority checks the rule's priority order: overflow or
// over-commit wins over denial (and both together double only once),
// denial wins over decay.
func TestThresholdPriority(t *testing.T) {
	cfg := PolicyConfig{Min: 1, Max: 1 << 20}
	if got := NextThreshold(100, Feedback{Overflows: 1, Denied: 10}, cfg); got != 200 {
		t.Fatalf("overflow+denied: got %d, want 200 (overflow wins)", got)
	}
	if got := NextThreshold(100, Feedback{Residency: 50, Work: 10, Denied: 10}, cfg); got != 200 {
		t.Fatalf("over-commit+denied: got %d, want 200 (over-commit wins)", got)
	}
	if got := NextThreshold(100, Feedback{Overflows: 1, Residency: 50, Work: 10}, cfg); got != 200 {
		t.Fatalf("overflow+over-commit: got %d, want 200 (one doubling)", got)
	}
	if got := NextThreshold(100, Feedback{Denied: 1, HostFrames: 1000}, cfg); got != 150 {
		t.Fatalf("denied+cold: got %d, want 150 (denied wins)", got)
	}
}

// TestThresholdClamps checks the Max clamp and the saturating
// arithmetic near the top of the range.
func TestThresholdClamps(t *testing.T) {
	if got := NextThreshold(1000, Feedback{Overflows: 1}, PolicyConfig{Min: 1, Max: 1024}); got != 1024 {
		t.Fatalf("max clamp: got %d, want 1024", got)
	}
	// No Max configured: doubling saturates rather than wrapping.
	if got := NextThreshold(1<<31, Feedback{Overflows: 1}, PolicyConfig{Min: 1}); got != 1<<31 {
		t.Fatalf("saturating double: got %d, want %d", got, uint32(1<<31))
	}
	if got := NextThreshold(^uint32(0), Feedback{Denied: 1}, PolicyConfig{Min: 1}); got != ^uint32(0) {
		t.Fatalf("saturating add: got %d, want %d", got, ^uint32(0))
	}
	// Decay from 1 must not reach 0: the Min clamp holds the floor.
	if got := NextThreshold(1, Feedback{HostFrames: 10}, PolicyConfig{Min: 1}); got != 1 {
		t.Fatalf("min clamp: got %d, want 1", got)
	}
}
