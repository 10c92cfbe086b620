#include "interval/interval.h"

#include <sstream>

namespace rtlsat {

std::string Interval::to_string() const {
  if (is_empty()) return "<empty>";
  std::ostringstream os;
  if (is_point()) {
    os << '<' << lo_ << '>';
  } else {
    os << '<' << lo_ << ',' << hi_ << '>';
  }
  return os.str();
}

}  // namespace rtlsat
