#include "support/expects.h"

#include <string>

namespace pp::detail {

void throw_invalid_argument(std::string_view what) {
  throw std::invalid_argument(std::string(what));
}

void throw_logic_error(std::string_view what) {
  throw std::logic_error(std::string(what));
}

}  // namespace pp::detail
