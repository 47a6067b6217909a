// Tests for the transformer compute substrate (src/model/transformer).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/model_config.hpp"
#include "model/transformer.hpp"
#include "numeric/math.hpp"

namespace lserve::model {
namespace {

TEST(ModelConfig, PresetGeometries) {
  const ModelConfig l3 = llama3_8b();
  EXPECT_EQ(l3.layers, 32u);
  EXPECT_EQ(l3.q_heads, 32u);
  EXPECT_EQ(l3.kv_heads, 8u);
  EXPECT_EQ(l3.head_dim, 128u);
  EXPECT_EQ(l3.group_size(), 4u);
  EXPECT_EQ(l3.hidden(), 4096u);

  const ModelConfig l2 = llama2_7b();
  EXPECT_EQ(l2.group_size(), 1u);

  const ModelConfig m4 = minitron_4b();
  EXPECT_EQ(m4.q_heads, 24u);
  EXPECT_EQ(m4.kv_heads, 8u);
  EXPECT_EQ(m4.hidden(), 3072u);
}

TEST(Transformer, DeterministicFromSeed) {
  const ModelConfig cfg = tiny();
  Transformer a(cfg, 42), b(cfg, 42), c(cfg, 43);
  const std::vector<std::int32_t> ids{1, 2, 3};
  const num::Tensor ea = a.embed(ids);
  const num::Tensor eb = b.embed(ids);
  const num::Tensor ec = c.embed(ids);
  float diff_ab = 0.0f, diff_ac = 0.0f;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    diff_ab += std::abs(ea.data()[i] - eb.data()[i]);
    diff_ac += std::abs(ea.data()[i] - ec.data()[i]);
  }
  EXPECT_EQ(diff_ab, 0.0f);
  EXPECT_GT(diff_ac, 0.1f);
}

TEST(Transformer, RmsNormOutputHasUnitRms) {
  const ModelConfig cfg = tiny();
  Transformer tf(cfg, 1);
  num::Tensor x(2, cfg.hidden());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = 3.0f * static_cast<float>(i % 7) - 2.0f;
  }
  num::Tensor out(2, cfg.hidden());
  tf.rms_norm(x.view(), 0, out.view());
  for (std::size_t r = 0; r < 2; ++r) {
    double ms = 0.0;
    for (std::size_t c = 0; c < cfg.hidden(); ++c) {
      ms += static_cast<double>(out.at(r, c)) * out.at(r, c);
    }
    EXPECT_NEAR(ms / cfg.hidden(), 1.0, 1e-3);
  }
}

TEST(Transformer, QkvShapesAndRopePositionDependence) {
  const ModelConfig cfg = tiny();
  Transformer tf(cfg, 2);
  num::Tensor x(4, cfg.hidden(), 0.1f);
  num::Tensor q0(4, cfg.hidden()), k0(4, cfg.kv_dim()), v0(4, cfg.kv_dim());
  num::Tensor q1(4, cfg.hidden()), k1(4, cfg.kv_dim()), v1(4, cfg.kv_dim());
  tf.qkv_project(x.view(), 0, /*pos0=*/0, q0.view(), k0.view(), v0.view());
  tf.qkv_project(x.view(), 0, /*pos0=*/100, q1.view(), k1.view(), v1.view());
  // Values are position-independent; queries/keys rotate with position.
  float vdiff = 0.0f, qdiff = 0.0f;
  for (std::size_t i = 0; i < v0.size(); ++i) {
    vdiff += std::abs(v0.data()[i] - v1.data()[i]);
  }
  for (std::size_t i = 0; i < q0.size(); ++i) {
    qdiff += std::abs(q0.data()[i] - q1.data()[i]);
  }
  EXPECT_EQ(vdiff, 0.0f);
  EXPECT_GT(qdiff, 0.01f);
}

TEST(Transformer, ReadoutLogitsConsistentWithArgmax) {
  const ModelConfig cfg = tiny();
  Transformer tf(cfg, 3);
  const std::vector<std::int32_t> ids{5};
  const num::Tensor h = tf.embed(ids);
  const auto logits = tf.readout_logits(h.row(0));
  const std::int32_t best = tf.readout_argmax(h.row(0));
  ASSERT_EQ(logits.size(), cfg.vocab);
  for (float l : logits) {
    EXPECT_LE(l, logits[static_cast<std::size_t>(best)] + 1e-6f);
  }
  // Embedding row dotted with itself dominates: argmax(embed(t)) == t for
  // random gaussian embeddings with high probability; check it holds here.
  EXPECT_EQ(best, 5);
}

TEST(Transformer, FfnAndOutputProjectChangeHiddenState) {
  const ModelConfig cfg = tiny();
  Transformer tf(cfg, 4);
  num::Tensor hidden(1, cfg.hidden(), 0.5f);
  num::Tensor before = hidden;
  tf.ffn(hidden.view(), 0);
  float diff = 0.0f;
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    diff += std::abs(hidden.data()[i] - before.data()[i]);
  }
  EXPECT_GT(diff, 1e-3f);
  EXPECT_TRUE(std::isfinite(hidden.at(0, 0)));
}

TEST(Transformer, DeepStackStaysFinite) {
  const ModelConfig cfg = small();
  Transformer tf(cfg, 5);
  num::Tensor hidden(2, cfg.hidden(), 0.3f);
  num::Tensor normed(2, cfg.hidden());
  for (std::size_t layer = 0; layer < cfg.layers; ++layer) {
    tf.rms_norm(hidden.view(), layer, normed.view());
    tf.output_project(normed.view(), layer, hidden.view());
    tf.ffn(hidden.view(), layer);
  }
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    EXPECT_TRUE(std::isfinite(hidden.data()[i]));
  }
}

}  // namespace
}  // namespace lserve::model
