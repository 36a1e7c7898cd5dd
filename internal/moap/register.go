package moap

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

// ApplyOptions overlays declarative option strings onto a MOAP
// configuration; unknown keys or malformed values are errors.
func ApplyOptions(cfg *Config, options map[string]string) error {
	o := protoreg.NewOpts(options)
	o.Duration("data_interval", &cfg.DataInterval)
	o.Duration("publish_interval", &cfg.PublishInterval)
	o.Duration("subscribe_delay_max", &cfg.SubscribeDelayMax)
	o.Duration("rx_timeout", &cfg.RxTimeout)
	o.Int("window", &cfg.Window)
	o.Int("max_naks", &cfg.MaxNaks)
	return o.Err()
}

func init() {
	protoreg.Register("moap", "MOAP", func(b protoreg.Build) (node.Protocol, error) {
		cfg := DefaultConfig()
		if b.Base {
			cfg.Base = true
			cfg.Image = b.Image
		}
		if err := ApplyOptions(&cfg, b.Options); err != nil {
			return nil, err
		}
		return New(cfg), nil
	})
}
