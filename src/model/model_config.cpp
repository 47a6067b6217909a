#include "model/model_config.hpp"

namespace lserve::model {

ModelConfig llama3_8b() {
  ModelConfig cfg;
  cfg.name = "Llama-3-8B";
  cfg.layers = 32;
  cfg.q_heads = 32;
  cfg.kv_heads = 8;
  cfg.head_dim = 128;
  cfg.ffn_hidden = 14336;
  cfg.vocab = 128256;
  cfg.rope_base = 500000.0f;
  return cfg;
}

ModelConfig llama2_7b() {
  ModelConfig cfg;
  cfg.name = "Llama-2-7B";
  cfg.layers = 32;
  cfg.q_heads = 32;
  cfg.kv_heads = 32;
  cfg.head_dim = 128;
  cfg.ffn_hidden = 11008;
  cfg.vocab = 32000;
  cfg.rope_base = 10000.0f;
  return cfg;
}

ModelConfig minitron_4b() {
  ModelConfig cfg;
  cfg.name = "Minitron-4B";
  cfg.layers = 32;
  cfg.q_heads = 24;
  cfg.kv_heads = 8;
  cfg.head_dim = 128;
  cfg.ffn_hidden = 9216;
  cfg.vocab = 256000;
  cfg.rope_base = 10000.0f;
  return cfg;
}

ModelConfig ds_r1_llama_8b() {
  ModelConfig cfg = llama3_8b();
  cfg.name = "DS-R1-Llama-8B";
  return cfg;
}

ModelConfig tiny() {
  ModelConfig cfg;
  cfg.name = "tiny";
  cfg.layers = 2;
  cfg.q_heads = 4;
  cfg.kv_heads = 2;
  cfg.head_dim = 32;
  cfg.ffn_hidden = 256;
  cfg.vocab = 256;
  return cfg;
}

ModelConfig small() {
  ModelConfig cfg;
  cfg.name = "small";
  cfg.layers = 4;
  cfg.q_heads = 8;
  cfg.kv_heads = 4;
  cfg.head_dim = 64;
  cfg.ffn_hidden = 1024;
  cfg.vocab = 1024;
  return cfg;
}

}  // namespace lserve::model
