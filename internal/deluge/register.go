package deluge

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

func init() {
	protoreg.Register("deluge", "Deluge", func(b protoreg.Build) (node.Protocol, error) {
		if err := protoreg.NewOpts(b.Options).Err(); err != nil {
			return nil, err
		}
		cfg := Config{}
		if b.Base {
			cfg.Base = true
			cfg.Image = b.Image
		}
		return New(cfg), nil
	})
}
