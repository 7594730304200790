#include "nn/residual.h"

#include "tensor/ops.h"

namespace openei::nn {

ResidualBlock::ResidualBlock(std::vector<LayerPtr> body, LayerPtr projection)
    : body_(std::move(body)), projection_(std::move(projection)) {
  OPENEI_CHECK(!body_.empty(), "residual block with empty body");
  for (const auto& layer : body_) {
    OPENEI_CHECK(layer != nullptr, "null layer in residual body");
  }
}

Tensor ResidualBlock::forward(const Tensor& input, bool training) {
  Tensor out = input;
  for (auto& layer : body_) out = layer->forward(out, training);
  Tensor shortcut =
      projection_ ? projection_->forward(input, training) : input;
  OPENEI_CHECK(out.shape() == shortcut.shape(),
               "residual branch shapes differ: ", out.shape().to_string(), " vs ",
               shortcut.shape().to_string(),
               " (add a projection layer)");
  tensor::add_into(out.data().data(), shortcut.data().data(), out.elements(),
                   out.data().data());
  return out;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  Tensor grad_body = grad_output;
  for (std::size_t i = body_.size(); i-- > 0;) {
    grad_body = body_[i]->backward(grad_body);
  }
  Tensor grad_shortcut =
      projection_ ? projection_->backward(grad_output) : grad_output;
  return grad_body + grad_shortcut;
}

std::vector<Tensor*> ResidualBlock::parameters() {
  std::vector<Tensor*> out;
  for (auto& layer : body_) {
    for (Tensor* p : layer->parameters()) out.push_back(p);
  }
  if (projection_) {
    for (Tensor* p : projection_->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> ResidualBlock::gradients() {
  std::vector<Tensor*> out;
  for (auto& layer : body_) {
    for (Tensor* g : layer->gradients()) out.push_back(g);
  }
  if (projection_) {
    for (Tensor* g : projection_->gradients()) out.push_back(g);
  }
  return out;
}

Shape ResidualBlock::output_shape(const Shape& input) const {
  Shape shape = input;
  for (const auto& layer : body_) shape = layer->output_shape(shape);
  Shape shortcut = projection_ ? projection_->output_shape(input) : input;
  OPENEI_CHECK(shape == shortcut, "residual output shapes differ: ",
               shape.to_string(), " vs ", shortcut.to_string());
  return shape;
}

std::size_t ResidualBlock::flops(const Shape& input) const {
  std::size_t total = 0;
  Shape shape = input;
  for (const auto& layer : body_) {
    total += layer->flops(shape);
    shape = layer->output_shape(shape);
  }
  if (projection_) total += projection_->flops(input);
  total += shape.elements();  // the elementwise add
  return total;
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  std::vector<LayerPtr> body_copy;
  body_copy.reserve(body_.size());
  for (const auto& layer : body_) body_copy.push_back(layer->clone());
  return std::make_unique<ResidualBlock>(
      std::move(body_copy), projection_ ? projection_->clone() : nullptr);
}

common::Json ResidualBlock::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("body_layers", body_.size());
  cfg.set("has_projection", projection_ != nullptr);
  return cfg;
}

}  // namespace openei::nn
