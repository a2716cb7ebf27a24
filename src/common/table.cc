#include "table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>

namespace vsmooth {

TextTable::TextTable(std::string title) : title_(std::move(title)) {}

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
TextTable::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TextTable::num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
TextTable::num(std::uint32_t v)
{
    return std::to_string(v);
}

std::string
TextTable::num(int v)
{
    return std::to_string(v);
}

void
TextTable::print(std::ostream &os) const
{
    // Compute column widths over header and all rows.
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &row) {
        if (row.size() > widths.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    grow(header_);
    for (const auto &row : rows_)
        grow(row);

    if (!title_.empty())
        os << "== " << title_ << " ==\n";

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << row[i];
        }
        os << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
}

} // namespace vsmooth
