package cluster

import (
	"testing"
	"time"
)

// TestRetrySkipsDeadLeaves is the failure-detector regression test: when a
// task's leaf crashes, the retry must re-place it on a leaf the manager
// reports alive — never on the crashed leaf, and never on a leaf the
// failure detector has flagged suspect (even though its last heartbeat is
// still fresh).
func TestRetrySkipsDeadLeaves(t *testing.T) {
	// MaxTaskRetries=1: if the single retry routed to a dead or suspect
	// leaf, the query would fail, so success proves the exclusion.
	tc := newTestCluster(t, 4, 0, 8, func(cfg *MasterConfig) {
		cfg.MaxTaskRetries = 1
	})

	// leaf0 crashes after its last heartbeat: calls fail with
	// ErrUnknownNode, but the liveness window (1 minute) still counts it
	// alive, so initial placement will route tasks at it.
	tc.fabric.SetDown("leaf0", true)
	// leaf1 is reachable but the failure detector has flagged it: retries
	// must avoid it purely on the manager's word.
	tc.master.Manager.MarkSuspect("leaf1")
	leaf1Before := tc.leaves[1].Tasks.Value()

	res, stats := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{})
	if got := res.Rows[0][0].I; got != int64(8*testRowsPerPartition) {
		t.Fatalf("count = %d, want %d", got, 8*testRowsPerPartition)
	}
	if stats.BackupTasks == 0 {
		t.Fatal("no task was placed on the crashed leaf; widen the workload so the regression is exercised")
	}
	if tc.master.Retries.Value() == 0 {
		t.Fatal("Retries counter not incremented")
	}
	if got := tc.leaves[1].Tasks.Value(); got != leaf1Before {
		t.Fatalf("suspect leaf1 ran %d task(s); retries must skip leaves the failure detector reports dead", got-leaf1Before)
	}

	// The crashed leaf is now suspect too (marked when its task call
	// failed), so the health report shows both dead.
	dead := 0
	for _, n := range tc.master.Manager.Health().Nodes {
		if n.Kind == KindLeaf && n.State == StateDead {
			dead++
		}
	}
	if dead != 2 {
		t.Fatalf("health reports %d dead leaves, want 2 (crashed + suspect)", dead)
	}

	// A fresh heartbeat clears the suspicion and the leaf takes work again.
	tc.fabric.SetDown("leaf0", false)
	tc.beat()
	for _, n := range tc.master.Manager.Health().Nodes {
		if n.Kind == KindLeaf && n.State != StateAlive {
			t.Fatalf("%s still %v after heartbeat", n.Name, n.State)
		}
	}
	res, _ = tc.query("SELECT COUNT(*) FROM logs", QueryOptions{})
	if got := res.Rows[0][0].I; got != int64(8*testRowsPerPartition) {
		t.Fatalf("post-recovery count = %d", got)
	}
}

// TestRetryBackoffDeterministic pins the deterministic backoff schedule:
// same task key and attempt always produce the same delay, delays grow
// exponentially, and distinct tasks get decorrelated jitter.
func TestRetryBackoffDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	if a, b := retryDelay(base, "t1", 0), retryDelay(base, "t1", 0); a != b {
		t.Fatalf("same key/attempt gave %v then %v", a, b)
	}
	d0, d1, d2 := retryDelay(base, "t1", 0), retryDelay(base, "t1", 1), retryDelay(base, "t1", 2)
	if d0 < base || d0 >= 2*base {
		t.Fatalf("attempt 0 delay %v outside [base, 2*base)", d0)
	}
	if d1 < 2*base || d2 < 4*base {
		t.Fatalf("backoff not exponential: %v, %v, %v", d0, d1, d2)
	}
	if retryDelay(base, "t1", 0) == retryDelay(base, "t2", 0) {
		t.Fatal("distinct tasks drew identical jitter (suspicious for FNV)")
	}
}

// TestRetryUnreachableBackupKeepsBudget is the chaos-equivalence flake's
// regression test: a backup leaf that turns out to be already down (the
// call fails with ErrUnknownNode before any work runs) must not spend the
// retry budget. With MaxTaskRetries=1 the task's first backup lands on a
// down replica holder; the task must still get its one real attempt on a
// live leaf and succeed.
func TestRetryUnreachableBackupKeepsBudget(t *testing.T) {
	tc := newTestCluster(t, 4, 0, 1, func(cfg *MasterConfig) {
		cfg.MaxTaskRetries = 1
		cfg.HedgeDelay = -1
	})
	// leaf0 and leaf1 hold the only partition, so placement prefers them
	// in name order: the primary goes to leaf0 and the first backup to
	// leaf1. Both crashed after their last heartbeat, so the manager still
	// counts them alive until their calls fail.
	tc.master.Scheduler.Locator = mapLocator{"/hdfs/logs/p0": {"leaf0", "leaf1"}}
	tc.fabric.SetDown("leaf0", true)
	tc.fabric.SetDown("leaf1", true)
	live2, live3 := tc.leaves[2].Tasks.Value(), tc.leaves[3].Tasks.Value()

	res, stats := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{})
	if got := res.Rows[0][0].I; got != int64(testRowsPerPartition) {
		t.Fatalf("count = %d, want %d", got, testRowsPerPartition)
	}
	if stats.TasksFailed != 0 {
		t.Fatalf("%d task(s) failed; an unreachable backup spent the retry budget", stats.TasksFailed)
	}
	if stats.BackupTasks != 2 {
		t.Errorf("backup tasks = %d, want 2 (unreachable leaf1, then a live leaf)", stats.BackupTasks)
	}
	ran := tc.leaves[2].Tasks.Value() - live2 + tc.leaves[3].Tasks.Value() - live3
	if ran != 1 {
		t.Errorf("live leaves ran %d task(s), want the one real attempt", ran)
	}
}
