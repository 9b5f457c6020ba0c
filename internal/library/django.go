package library

import (
	"fmt"
	"strings"

	"engage/internal/deploy"
	"engage/internal/driver"
	"engage/internal/migrate"
	"engage/internal/packager"
	"engage/internal/resource"
	"engage/internal/spec"
)

// This file implements the Django platform support of §6.2: resource
// types generated from packaged application manifests, the application
// driver (including declarative PyPI package installation, South
// migrations, and cron jobs), and the configuration-space builder behind
// the paper's "256 distinct deployment configurations".

// AppKey returns the resource key generated for a packaged application.
func AppKey(man packager.Manifest) resource.Key {
	return resource.MakeKey("DjangoApp-"+man.Name, man.Version)
}

// AppType builds the resource type for a packaged Django application.
// The type nests inside a WSGI server (Gunicorn or Apache via the
// abstract WSGIServer), requires Django (and transitively Python) in its
// environment, peers with a Django-compatible database, and — per the
// manifest — peers with Redis/Memcached, requires Celery (and
// transitively RabbitMQ), and requires South for migrations.
func AppType(man packager.Manifest) *resource.Type {
	str := func(s string) resource.Expr { return resource.Lit{V: resource.Str(s)} }
	wsgiStruct := resource.StructType(map[string]resource.PortType{
		"host": resource.T(resource.KindString),
		"port": resource.T(resource.KindPort),
	})
	djStruct := resource.StructType(map[string]resource.PortType{
		"admin": resource.T(resource.KindString),
	})
	dbStruct := resource.StructType(map[string]resource.PortType{
		"engine": resource.T(resource.KindString),
		"host":   resource.T(resource.KindString),
		"port":   resource.T(resource.KindPort),
	})

	pkgList := make([]resource.Value, len(man.PythonPackages))
	for i, p := range man.PythonPackages {
		pkgList[i] = resource.Str(p)
	}
	cronList := make([]resource.Value, len(man.CronJobs))
	for i, c := range man.CronJobs {
		cronList[i] = resource.Str(c)
	}

	t := &resource.Type{
		Key: AppKey(man),
		Doc: "Generated resource type for the packaged Django application " + man.Name + ".",
		Inside: &resource.Dependency{
			Alternatives: []resource.Key{{Name: "WSGIServer"}},
			PortMap:      map[string]string{"wsgi": "wsgi"},
		},
		Input: []resource.Port{
			{Name: "wsgi", Type: wsgiStruct},
			{Name: "django", Type: djStruct},
			{Name: "dj_db", Type: dbStruct},
		},
		Config: []resource.Port{
			{Name: "app_name", Type: resource.T(resource.KindString), Def: str(man.Name)},
			{Name: "packages", Type: resource.ListType(resource.T(resource.KindString)),
				Def: resource.Lit{V: resource.ListV(pkgList...)}},
			{Name: "cron_jobs", Type: resource.ListType(resource.T(resource.KindString)),
				Def: resource.Lit{V: resource.ListV(cronList...)}},
		},
		Output: []resource.Port{
			{Name: "url", Type: resource.T(resource.KindString), Def: resource.Concat{Args: []resource.Expr{
				str("http://"),
				resource.Ref{Sec: resource.SecInput, Name: "wsgi", Path: []string{"host"}},
				str(":"),
				resource.Ref{Sec: resource.SecInput, Name: "wsgi", Path: []string{"port"}},
				str("/"),
				resource.Ref{Sec: resource.SecConfig, Name: "app_name"},
			}}},
		},
		Env: []resource.Dependency{
			{Alternatives: []resource.Key{resource.MakeKey("Django", "1.3")},
				PortMap: map[string]string{"django": "django"}},
		},
		Peer: []resource.Dependency{},
	}

	// Database choice: a fixed engine pins the peer to the concrete
	// type; otherwise the abstract DjangoDatabase lets the constraint
	// solver (or the user's partial spec) choose.
	dbKey := resource.Key{Name: "DjangoDatabase"}
	switch man.DatabaseEngine {
	case "mysql":
		dbKey = resource.MakeKey("MySQL", "5.1")
	case "sqlite":
		dbKey = resource.MakeKey("SQLite", "3.7")
	}
	t.Peer = append(t.Peer, resource.Dependency{
		Alternatives: []resource.Key{dbKey},
		PortMap:      map[string]string{"dj_db": "dj_db"},
	})

	if man.UsesRedis {
		t.Input = append(t.Input, resource.Port{Name: "redis", Type: resource.StructType(map[string]resource.PortType{
			"host": resource.T(resource.KindString),
			"port": resource.T(resource.KindPort),
		})})
		t.Peer = append(t.Peer, resource.Dependency{
			Alternatives: []resource.Key{resource.MakeKey("Redis", "2.4")},
			PortMap:      map[string]string{"redis": "redis"},
		})
	}
	if man.UsesMemcached {
		t.Input = append(t.Input, resource.Port{Name: "memcached", Type: resource.StructType(map[string]resource.PortType{
			"host": resource.T(resource.KindString),
			"port": resource.T(resource.KindPort),
		})})
		t.Peer = append(t.Peer, resource.Dependency{
			Alternatives: []resource.Key{resource.MakeKey("Memcached", "1.4")},
			PortMap:      map[string]string{"memcached": "memcached"},
		})
	}
	if man.UsesCelery {
		// Celery workers may run on a different node (the production
		// WebApp topology does exactly that), so this is a peer
		// dependency: the app only needs the broker URL.
		t.Input = append(t.Input, resource.Port{Name: "celery", Type: resource.StructType(map[string]resource.PortType{
			"broker": resource.T(resource.KindString),
		})})
		t.Peer = append(t.Peer, resource.Dependency{
			Alternatives: []resource.Key{resource.MakeKey("Celery", "2.4")},
			PortMap:      map[string]string{"celery": "celery"},
		})
	}
	if man.HasMigrations {
		t.Input = append(t.Input, resource.Port{Name: "south", Type: resource.StructType(map[string]resource.PortType{
			"version": resource.T(resource.KindString),
		})})
		t.Env = append(t.Env, resource.Dependency{
			Alternatives: []resource.Key{resource.MakeKey("South", "0.7")},
			PortMap:      map[string]string{"south": "south"},
		})
	}
	return t
}

// AppDriver builds the deployment driver for a packaged application.
// Install writes the archive files under /srv/<app>, installs the PyPI
// requirements declaratively (each charged pypiPackageTime), creates the
// application database, runs South migrations when present, and
// registers cron jobs. Start marks the app served by its WSGI container.
func AppDriver(arch packager.Archive) deploy.Factory {
	man := arch.Manifest
	root := "/srv/" + man.Name
	return func(ctx *driver.Context) *driver.StateMachine {
		install := func(c *driver.Context) error {
			for path, content := range arch.Files {
				if err := c.Machine.WriteFile(root+"/"+path, content); err != nil {
					return err
				}
			}
			for _, pkg := range pythonPackages(c) {
				c.Charge(pypiPackageTime)
				if err := c.Machine.WriteFile("/usr/lib/python2.7/site-packages/"+pkgBase(pkg)+"/PKG-INFO", pkg); err != nil {
					return err
				}
			}
			db := migrate.Open(c.Machine, "/var/db/"+man.Name)
			if !db.Exists() {
				if err := db.Init(1); err != nil {
					return err
				}
			}
			if man.HasMigrations {
				if _, err := db.SchemaVersion(); err != nil {
					return err
				}
			}
			if jobs := c.Instance.Config["cron_jobs"]; len(jobs.List) > 0 {
				var lines []string
				for _, j := range jobs.List {
					lines = append(lines, j.Str)
				}
				if err := c.Machine.WriteFile("/etc/cron.d/"+man.Name, strings.Join(lines, "\n")); err != nil {
					return err
				}
			}
			return nil
		}
		start := func(c *driver.Context) error {
			return c.Machine.WriteFile(root+"/SERVING", c.Instance.Output["url"].AsString())
		}
		stop := func(c *driver.Context) error {
			c.Machine.RemoveFile(root + "/SERVING")
			return nil
		}
		uninstall := func(c *driver.Context) error {
			c.Machine.RemoveTree(root)
			c.Machine.RemoveFile("/etc/cron.d/" + man.Name)
			return nil
		}
		return driver.ServiceMachine(install, start, stop, start, uninstall)
	}
}

func pythonPackages(c *driver.Context) []string {
	v, ok := c.Instance.Config["packages"]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(v.List))
	for _, p := range v.List {
		out = append(out, p.Str)
	}
	return out
}

func pkgBase(req string) string {
	return strings.ToLower(strings.SplitN(req, "==", 2)[0])
}

// WithApp returns reg and drivers extended by a packaged application's
// generated resource type and its driver: the one way an app joins a
// library ("deployable by Engage without requiring any
// application-specific deployment code"). reg and drivers are not
// changed; a key already in reg is an error.
func WithApp(reg *resource.Registry, drivers *deploy.DriverRegistry, arch packager.Archive) (*resource.Registry, *deploy.DriverRegistry, error) {
	if arch.Manifest.Name == "" {
		return nil, nil, fmt.Errorf("library: archive has no application name")
	}
	t := AppType(arch.Manifest)
	next, err := reg.With(t)
	if err != nil {
		return nil, nil, fmt.Errorf("library: registering app %q: %w", arch.Manifest.Name, err)
	}
	return next, drivers.With(t.Key, AppDriver(arch)), nil
}

// DeployConfig is one point in the Django deployment configuration
// space of §6.2: OS × web server × database × optional components ×
// monitoring — 4 × 2 × 2 × 2³ × 2 = 256 single-node configurations.
type DeployConfig struct {
	OS        resource.Key // one of the four Server subclasses
	WebServer resource.Key // Gunicorn 0.13 or Apache 2.2
	Database  resource.Key // SQLite 3.7 or MySQL 5.1
	Celery    bool
	Redis     bool
	Memcached bool
	Monit     bool
}

// OSChoices, WebServerChoices, DatabaseChoices enumerate the §6.2 axes.
var (
	OSChoices = []resource.Key{
		resource.MakeKey("Mac-OSX", "10.6"),
		resource.MakeKey("Mac-OSX", "10.7"),
		resource.MakeKey("Ubuntu", "10.04"),
		resource.MakeKey("Ubuntu", "12.04"),
	}
	WebServerChoices = []resource.Key{
		resource.MakeKey("Gunicorn", "0.13"),
		resource.MakeKey("Apache", "2.2"),
	}
	DatabaseChoices = []resource.Key{
		resource.MakeKey("SQLite", "3.7"),
		resource.MakeKey("MySQL", "5.1"),
	}
)

// AllConfigs enumerates the full single-node configuration space (256
// entries), in deterministic order.
func AllConfigs() []DeployConfig {
	var out []DeployConfig
	for _, os := range OSChoices {
		for _, ws := range WebServerChoices {
			for _, db := range DatabaseChoices {
				for c := 0; c < 2; c++ {
					for r := 0; r < 2; r++ {
						for m := 0; m < 2; m++ {
							for mon := 0; mon < 2; mon++ {
								out = append(out, DeployConfig{
									OS: os, WebServer: ws, Database: db,
									Celery: c == 1, Redis: r == 1,
									Memcached: m == 1, Monit: mon == 1,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Partial builds the partial installation specification deploying a
// packaged application under one configuration: the machine, the chosen
// web server, the chosen database, the app, and the selected optional
// components — everything else (Python, Django, South, RabbitMQ, …) is
// derived by the configuration engine.
func (cfg DeployConfig) Partial(man packager.Manifest) *spec.Partial {
	p := &spec.Partial{}
	p.Add("server", cfg.OS)
	p.Add("webserver", cfg.WebServer).In("server")
	p.Add("database", cfg.Database).In("server")
	p.Add("app", AppKey(man)).In("webserver")
	if cfg.Celery {
		p.Add("celery", resource.MakeKey("Celery", "2.4")).In("server")
	}
	if cfg.Redis {
		p.Add("redis", resource.MakeKey("Redis", "2.4")).In("server")
	}
	if cfg.Memcached {
		p.Add("memcached", resource.MakeKey("Memcached", "1.4")).In("server")
	}
	if cfg.Monit {
		p.Add("monit", resource.MakeKey("Monit", "5.3")).In("server")
	}
	return p
}

// String renders the configuration compactly, e.g.
// "ubuntu-12.04/gunicorn/mysql+celery+monit".
func (cfg DeployConfig) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s",
		strings.ToLower(cfg.OS.Name+"-"+cfg.OS.Version),
		strings.ToLower(cfg.WebServer.Name),
		strings.ToLower(cfg.Database.Name))
	if cfg.Celery {
		b.WriteString("+celery")
	}
	if cfg.Redis {
		b.WriteString("+redis")
	}
	if cfg.Memcached {
		b.WriteString("+memcached")
	}
	if cfg.Monit {
		b.WriteString("+monit")
	}
	return b.String()
}
