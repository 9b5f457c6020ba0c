package engage

import (
	"testing"
	"time"

	"engage/internal/migrate"
)

// faUpgrade registers the FA application (Table 1) at versions 1.0 and
// 2.0 and configures both under cfg; v2m is version 2.0's manifest. The
// virtual clock makes every elapsed time below exact.
func faUpgrade(t *testing.T, cfg DeployConfig) (sys *System, v1, v2 *Full, v2m Manifest) {
	t.Helper()
	sys = newSys(t)
	sys.Cache = nil
	var fa App
	for _, a := range TableOneApps() {
		if a.Name == "fa" {
			fa = a
		}
	}
	faV2 := fa
	faV2.Version = "2.0"
	var fulls []*Full
	for _, app := range []App{fa, faV2} {
		arch, err := sys.PackageApp(app)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RegisterApp(arch); err != nil {
			t.Fatal(err)
		}
		full, err := sys.Configure(DjangoPartial(cfg, arch.Manifest))
		if err != nil {
			t.Fatal(err)
		}
		fulls = append(fulls, full)
		v2m = arch.Manifest
	}
	return sys, fulls[0], fulls[1], v2m
}

// TestUpgradeStrategies is the paper's upgrade experiment (E9, §6.2)
// and the upgrade-strategy ablation (A5) as exact virtual times: FA
// v1 → v2 by full redeploy preserves the database content, an upgrade
// onto a squatted port rolls back, and the incremental strategy leaves
// the database daemon running and pays only for the application.
func TestUpgradeStrategies(t *testing.T) {
	cfg := DeployConfig{
		OS:        ParseKey("Ubuntu 12.04"),
		WebServer: ParseKey("Gunicorn 0.13"),
		Database:  ParseKey("MySQL 5.1"),
	}

	t.Run("E9", func(t *testing.T) {
		sys, v1, v2, v2m := faUpgrade(t, cfg)
		old, err := sys.Deploy(v1)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := sys.World.Machine("server")
		db := migrate.Open(m, "/var/db/fa")
		db.Insert("applications", "alice|faculty")
		db.Insert("applications", "bob|postdoc")

		next, res, err := sys.Upgrade(old, v1, v2)
		if err != nil || res.RolledBack {
			t.Fatalf("v1 → v2: %v, rolled back %v (%v)", err, res.RolledBack, res.Cause)
		}
		if res.Elapsed != 44*time.Second {
			t.Errorf("v1 → v2 took %v, want 44s", res.Elapsed)
		}
		if rows := db.Rows("applications"); len(rows) != 2 || rows[0] != "alice|faculty" || rows[1] != "bob|postdoc" {
			t.Errorf("content after upgrade = %v", rows)
		}
		if !next.Deployed() {
			t.Fatalf("upgraded system down: %v", next.Status())
		}

		// The next configuration adds Redis, whose port is squatted, so
		// the new system cannot deploy and the upgrade rolls back.
		if _, err := m.StartProcess("squatter", "nc", 6379); err != nil {
			t.Fatal(err)
		}
		cfgR := cfg
		cfgR.Redis = true
		v2r, err := sys.Configure(DjangoPartial(cfgR, v2m))
		if err != nil {
			t.Fatal(err)
		}
		back, res, err := sys.Upgrade(next, v2, v2r)
		if err != nil {
			t.Fatal(err)
		}
		if !res.RolledBack || res.Cause == nil {
			t.Fatalf("squatted upgrade: rolled back %v, cause %v", res.RolledBack, res.Cause)
		}
		if !back.Deployed() {
			t.Errorf("rolled-back system down: %v", back.Status())
		}
		if rows := db.Rows("applications"); len(rows) != 2 {
			t.Errorf("content after rollback = %v", rows)
		}
	})

	t.Run("A5", func(t *testing.T) {
		cfg := cfg
		cfg.Memcached, cfg.Monit = true, true
		elapsed := func(incremental bool) time.Duration {
			sys, v1, v2, _ := faUpgrade(t, cfg)
			old, err := sys.Deploy(v1)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := sys.World.Machine("server")
			before, ok := m.FindProcess("mysql")
			if !ok {
				t.Fatal("mysql not running")
			}
			upgrade := sys.Upgrade
			if incremental {
				upgrade = sys.UpgradeIncremental
			}
			next, res, err := upgrade(old, v1, v2)
			if err != nil || res.RolledBack {
				t.Fatalf("incremental %v: %v, rolled back %v (%v)", incremental, err, res.RolledBack, res.Cause)
			}
			if !next.Deployed() {
				t.Fatalf("upgraded system down: %v", next.Status())
			}
			after, ok := m.FindProcess("mysql")
			if !ok {
				t.Fatal("mysql not running after upgrade")
			}
			if incremental && after.PID != before.PID {
				t.Errorf("incremental upgrade restarted mysql: pid %d → %d", before.PID, after.PID)
			}
			return res.Elapsed
		}
		if full := elapsed(false); full != 49*time.Second {
			t.Errorf("full redeploy took %v, want 49s", full)
		}
		if incr := elapsed(true); incr != 24*time.Second {
			t.Errorf("incremental upgrade took %v, want 24s", incr)
		}
	})
}
