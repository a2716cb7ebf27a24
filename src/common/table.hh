/**
 * @file
 * Text table emission for bench harness output.
 *
 * Every figure/table bench prints its series through TextTable so the
 * reproduction output is uniform and diffable. Cells are stored as
 * strings; numeric helpers format with a fixed precision.
 */

#ifndef VSMOOTH_COMMON_TABLE_HH
#define VSMOOTH_COMMON_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace vsmooth {

/** Column-aligned text table with an optional title. */
class TextTable
{
  public:
    explicit TextTable(std::string title = "");

    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a row of preformatted cells. */
    void addRow(std::vector<std::string> row);

    /** Format a double with the given precision. */
    static std::string num(double v, int precision = 3);

    /** Format an integer. */
    static std::string num(std::uint64_t v);
    static std::string num(std::uint32_t v);
    static std::string num(int v);

    /** Render the table, column-aligned, to a stream. */
    void print(std::ostream &os) const;

    std::size_t numRows() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace vsmooth

#endif // VSMOOTH_COMMON_TABLE_HH
