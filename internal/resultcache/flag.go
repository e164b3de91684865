package resultcache

import (
	"fmt"
	"os"
)

// EnvVar is the environment variable naming the default cache directory,
// so a fleet of invocations shares one store without repeating
// -cache-dir. The value "off" disables caching even when later flags
// would not; the flags always win over the environment.
const EnvVar = "JVMSIM_CACHE"

// OpenFlags opens the cache the CLI flags describe: -cache-dir (dir),
// -cache (mode, "" when unset), -cache-verify (verifyN) and -cache-max-mb
// (maxMB), resolved against $JVMSIM_CACHE. Precedence: -cache-dir beats
// $JVMSIM_CACHE; an explicit -cache mode beats the dir-presence default;
// $JVMSIM_CACHE=off disables unless a flag re-enables. Returns (nil,
// nil) when the cache is off.
func OpenFlags(dir, mode string, verifyN, maxMB int) (*Cache, error) {
	env := os.Getenv(EnvVar)
	if dir == "" && env != "" && env != "off" {
		dir = env
	}
	if mode == "" {
		mode = "rw"
		if dir == "" {
			mode = "off"
		}
	}
	m, err := ParseMode(mode)
	if err != nil {
		return nil, err
	}
	if m != ModeOff && dir == "" {
		return nil, fmt.Errorf("resultcache: -cache=%s needs a directory: set -cache-dir or $%s", m, EnvVar)
	}
	if verifyN < 0 {
		return nil, fmt.Errorf("resultcache: -cache-verify %d must be >= 0", verifyN)
	}
	if maxMB < 0 {
		return nil, fmt.Errorf("resultcache: -cache-max-mb %d must be >= 0", maxMB)
	}
	c, err := Open(dir, m)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.MaxBytes = int64(maxMB) << 20
	}
	return c, nil
}
