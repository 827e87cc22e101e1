include Fpx_obs.Json
