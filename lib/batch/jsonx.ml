include Abg_util.Json
